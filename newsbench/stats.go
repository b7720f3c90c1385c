package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// prom is one /v1/metrics scrape: the value of every sample line, keyed
// by its series (metric name plus label set, as exposed).
type prom map[string]float64

func parseProm(raw []byte) (prom, error) {
	out := prom{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// seriesName splits a series key into metric name and label text.
func seriesName(key string) (string, string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// sumOf adds every series of the metric whose labels contain all of the
// given label fragments (e.g. `route="GET /v1/search"`).
func (p prom) sumOf(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range p {
		n, l := seriesName(k)
		if n != name {
			continue
		}
		ok := true
		for _, f := range labels {
			if !strings.Contains(l, f) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// delta is after minus before, series by series.
func delta(before, after prom) prom {
	out := prom{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMean is the mean observation of a histogram over a scrape delta:
// its _sum over its _count, scaled by unit (exact, unlike a percentile
// read off the coarse buckets).
func (p prom) histMean(name string, unit float64, labels ...string) float64 {
	return ratio(p.sumOf(name+"_sum", labels...), p.sumOf(name+"_count", labels...)) * unit
}
