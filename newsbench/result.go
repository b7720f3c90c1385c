package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one run's report.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Stamp     map[string]string `json:"stamp"`
	Correct   bool              `json:"correct"`
	Failures  []string          `json:"failures,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  []metric          `json:"end_to_end"`
	// Unbounded are end-to-end figures printed without a bound: the
	// tails, and the read latencies of a workload that reads.
	Unbounded []metric `json:"unbounded,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	SelfTime  []metric `json:"self_time,omitempty"`

	// Samples keeps each latency metric's samples (ms, in due order) in
	// the saved result, for offline analysis.
	Samples map[string][]float64 `json:"samples,omitempty"`

	layerCkptMs float64 // setup checkpoint write, reported per layer
	genLateP99  float64 // how late the generator sent ops, ms at p99
}

// genLate records and stamps the generator's p99 lateness.
func (r *result) genLate(p99 float64) {
	r.genLateP99 = p99
	r.Stamp["gen_late_p99_ms"] = strconv.FormatFloat(p99, 'f', 4, 64)
}

// endToEndNames fixes the order of the end-to-end metrics; every
// workload reports all of them.
var endToEndNames = []string{
	"setup_s", "write_tx_per_s", "commit_p50_ms", "searchable_p50_ms",
	"restart_s", "heap_mb", "ok_frac",
}

// endToEndUnits is the unit of each end-to-end metric.
var endToEndUnits = map[string]string{
	"setup_s": "s", "write_tx_per_s": "1/s", "commit_p50_ms": "ms", "searchable_p50_ms": "ms",
	"restart_s": "s", "heap_mb": "MiB", "ok_frac": "frac",
}

func (r *result) e2e(name string, v float64, unit string, n int) {
	r.EndToEnd = append(r.EndToEnd, metric{name, v, unit, n})
}

func (r *result) layer(name string, v float64, unit string, n int) {
	r.PerLayer = append(r.PerLayer, metric{name, v, unit, n})
}

// orderEndToEnd puts the end-to-end metrics in report order and checks
// that each is reported exactly once.
func (r *result) orderEndToEnd() error {
	got := map[string]metric{}
	for _, m := range r.EndToEnd {
		if _, dup := got[m.Name]; dup {
			return fmt.Errorf("end-to-end metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	if len(got) != len(endToEndNames) {
		return fmt.Errorf("%d end-to-end metrics reported, want %d", len(got), len(endToEndNames))
	}
	r.EndToEnd = r.EndToEnd[:0]
	for _, n := range endToEndNames {
		m, ok := got[n]
		if !ok {
			return fmt.Errorf("end-to-end metric %s not reported", n)
		}
		if m.Unit != endToEndUnits[n] {
			return fmt.Errorf("end-to-end metric %s in %s, declared in %s", n, m.Unit, endToEndUnits[n])
		}
		r.EndToEnd = append(r.EndToEnd, m)
	}
	return nil
}

// fail records a failed output check; the run then reports incorrect.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// latencies adds the p50 of xs (ms, in the order the ops were due)
// under the given base name, and its p95 without a bound.
func (r *result) latencies(base string, xs []float64) {
	r.keep(base, xs)
	r.e2e(base+"_p50_ms", quantile(xs, 0.5), "ms", len(xs))
	r.unbounded(base+"_p95_ms", quantile(xs, 0.95), len(xs))
}

// readLatencies adds the p50 and p90 of a read path's latencies (ms)
// without a bound; a workload that sends no such reads adds nothing.
func (r *result) readLatencies(base string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	r.keep(base, xs)
	r.unbounded(base+"_p50_ms", quantile(xs, 0.5), len(xs))
	r.unbounded(base+"_p90_ms", quantile(xs, 0.9), len(xs))
}

func (r *result) unbounded(name string, v float64, n int) {
	r.Unbounded = append(r.Unbounded, metric{name, v, "ms", n})
}

// keep saves a latency metric's samples with the result.
func (r *result) keep(base string, xs []float64) {
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	r.Samples[base] = xs
}

// print writes the human-readable report, then the one-line JSON result
// as the last line.
func (r *result) print(w io.Writer, untraced *result) {
	fmt.Fprintf(w, "newsbench %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	keys := make([]string, 0, len(r.Stamp))
	for k := range r.Stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  stamp %-22s %s\n", k, r.Stamp[k])
	}
	fmt.Fprintf(w, "  checks: correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  check failed: %s\n", f)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range ms {
			fmt.Fprintf(w, "  %-44s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	section("end-to-end:", r.EndToEnd)
	section("also measured, without a bound (not in the JSON line):", r.Unbounded)
	section("per-layer:", r.PerLayer)
	section("self time per layer (window):", r.SelfTime)
	if r.Trace {
		if untraced == nil {
			fmt.Fprintln(w, "tracing overhead: no untraced run of this workload, seed and length")
		} else {
			fmt.Fprintln(w, "tracing overhead (traced - untraced, same workload and seed):")
			base := map[string]metric{}
			for _, m := range append(untraced.EndToEnd, untraced.Unbounded...) {
				base[m.Name] = m
			}
			for _, m := range append(r.EndToEnd, r.Unbounded...) {
				b := base[m.Name]
				fmt.Fprintf(w, "  %-44s %+14.4f %-8s (%+.1f%%)\n", m.Name, m.Value-b.Value, m.Unit, 100*ratio(m.Value-b.Value, b.Value))
			}
		}
	}
	ms := r.EndToEnd
	if r.Trace {
		ms = r.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.Name] = val{m.Value, m.Unit}
	}
	raw, _ := json.Marshal(out)
	fmt.Fprintln(w, string(raw))
}

// resultPath names the saved result of an untraced run, which a traced
// run of the same workload, seed and length compares against.
func resultPath(outDir, workload string, seed int64, seconds int) string {
	return filepath.Join(outDir, "results", fmt.Sprintf("%s-s%d-t%d.json", workload, seed, seconds))
}

// baselineStamps are the stamps a saved untraced result must share with
// a traced run to serve as its tracing-overhead baseline: the same
// program on the same machine shape.
var baselineStamps = []string{"commit", "go_version", "nproc", "gomaxprocs"}

// sameProgram reports whether saved was measured on the program and
// machine shape the stamp describes.
func (r *result) sameProgram(stamp map[string]string) bool {
	for _, k := range baselineStamps {
		if r.Stamp[k] != stamp[k] {
			return false
		}
	}
	return true
}

func (r *result) save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func loadResult(path string) *result {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var r result
	if json.Unmarshal(raw, &r) != nil {
		return nil
	}
	return &r
}

// setupTimes reports setup_s as the median of the run's set-ups and
// stamps each one.
func (r *result) setupTimes(times []float64) {
	var each []string
	for _, t := range times {
		each = append(each, strconv.FormatFloat(t, 'f', 3, 64))
	}
	r.Stamp["setup_each_s"] = strings.Join(each, " ")
	r.e2e("setup_s", median(times), "s", len(times))
}
