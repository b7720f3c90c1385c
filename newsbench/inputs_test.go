package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ledger"
)

// TestInputDigestIsSeeded checks that inputs are a pure function of the
// seed: the same seed gives a byte-identical digest, another seed a
// different one.
func TestInputDigestIsSeeded(t *testing.T) {
	for name, s := range workloads {
		s.window = 2 * time.Second
		s.preload = 300
		s.perCli = 40
		a, b, c := generate(7, s).digest(), generate(7, s).digest(), generate(8, s).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
}

// TestInputsRunWithoutFailures checks the generated streams against the
// rules the node enforces, so a run has no op that must fail: every
// marker is unique, no user votes twice on an item, and each user's
// nonces rise by one in stream order.
func TestInputsRunWithoutFailures(t *testing.T) {
	for name, s := range workloads {
		// A long window on a small preload: the zipf head users run out
		// of articles to vote on.
		s.window = 30 * time.Second
		s.preload = min(s.preload, 300)
		s.perCli = 1000
		in := generate(3, s)
		markers := map[string]bool{}
		for _, a := range in.Articles {
			markers[a.Marker] = true
		}
		votes := map[string]bool{}
		next := map[string]uint64{}
		checkNonce := func(raw []byte) {
			tx, err := ledger.DecodeTx(raw)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sender := tx.Sender.String()
			if tx.Nonce != next[sender] {
				t.Errorf("%s: sender %s nonce %d, want %d", name, sender[:8], tx.Nonce, next[sender])
			}
			next[sender] = tx.Nonce + 1
		}
		for _, raw := range in.Preload {
			checkNonce(raw)
		}
		for _, st := range in.Streams {
			for _, o := range st {
				if o.write() {
					checkNonce(o.Tx)
				}
				switch o.Kind {
				case opPublish:
					if markers[o.Art.Marker] {
						t.Errorf("%s: marker %s reused", name, o.Art.Marker)
					}
					markers[o.Art.Marker] = true
				case opVote:
					k := fmt.Sprintf("%s/%d", o.Art.ID, o.User)
					if votes[k] {
						t.Errorf("%s: user %d votes twice on %s", name, o.User, o.Art.ID)
					}
					votes[k] = true
				}
			}
		}
		if s.clients > 0 {
			owner := map[int]int{}
			for c, st := range in.Streams {
				for _, o := range st {
					if o.User < 0 {
						continue
					}
					if prev, ok := owner[o.User]; ok && prev != c {
						t.Errorf("%s: user %d in streams %d and %d", name, o.User, prev, c)
					}
					owner[o.User] = c
				}
			}
		}
	}
}

// TestMixIsExact checks that every seed offers exactly the workload's
// mix per deck of ops.
func TestMixIsExact(t *testing.T) {
	s := workloads["read_feed"]
	s.window = time.Duration(1000/s.rate) * time.Second
	s.preload = 300
	for _, seed := range []int64{1, 2} {
		counts := map[string]int{}
		for _, o := range generate(seed, s).Streams[0][:1000] {
			counts[o.Kind]++
		}
		for _, m := range s.mix {
			if counts[m.kind] != 10*m.w {
				t.Errorf("seed %d: %d %s ops in 1000, want %d", seed, counts[m.kind], m.kind, 10*m.w)
			}
		}
	}
}
