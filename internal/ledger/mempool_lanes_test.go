package ledger

import (
	"errors"
	"strconv"
	"sync"
	"testing"
)

// TestMempoolLanesBatchMatchesFlat feeds the same traffic into a flat
// pool and a 4-lane pool: batch contents must be identical — lane
// partitioning must never change which transactions a proposer picks or
// their order.
func TestMempoolLanesBatchMatchesFlat(t *testing.T) {
	c := NewMemChain()
	flat := NewMempool(c, 0)
	laned := NewMempoolLanes(c, 0, 4)
	if got := laned.Lanes(); got != 4 {
		t.Fatalf("lanes=%d want 4", got)
	}
	for i := 0; i < 16; i++ {
		kp := signer("sender" + strconv.Itoa(i))
		for n := 0; n < 3; n++ {
			tx := mustTx(t, kp, uint64(n), "k", strconv.Itoa(i)+"/"+strconv.Itoa(n))
			if err := flat.Add(tx); err != nil {
				t.Fatal(err)
			}
			if err := laned.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if flat.Size() != laned.Size() {
		t.Fatalf("size flat=%d laned=%d", flat.Size(), laned.Size())
	}
	fb, lb := flat.Batch(0), laned.Batch(0)
	if len(fb) != len(lb) {
		t.Fatalf("batch len flat=%d laned=%d", len(fb), len(lb))
	}
	for i := range fb {
		if fb[i].ID() != lb[i].ID() {
			t.Fatalf("batch[%d] diverges: flat=%s laned=%s", i, fb[i].ID().Short(), lb[i].ID().Short())
		}
	}
}

// TestMempoolLanesCapacityAcrossLanes verifies that the pool-wide
// capacity bound holds however senders hash across lanes.
func TestMempoolLanesCapacityAcrossLanes(t *testing.T) {
	mp := NewMempoolLanes(NewMemChain(), 8, 4)
	full := 0
	for i := 0; i < 16; i++ {
		kp := signer("cap" + strconv.Itoa(i))
		if err := mp.Add(mustTx(t, kp, 0, "k", "x")); errors.Is(err, ErrMempoolFull) {
			full++
		}
	}
	if mp.Size() != 8 {
		t.Fatalf("size=%d want capacity 8", mp.Size())
	}
	if full != 8 {
		t.Fatalf("rejected=%d want 8", full)
	}
}

// TestMempoolLanesRejectionsAndRemove checks duplicate/stale handling and
// commit-time pruning work per lane exactly as in the flat pool.
func TestMempoolLanesRejectionsAndRemove(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	mp := NewMempoolLanes(c, 0, 4)
	tx0 := mustTx(t, alice, 0, "k", "a")
	if err := mp.Add(tx0); err != nil {
		t.Fatal(err)
	}
	if err := mp.Add(tx0); !errors.Is(err, ErrDuplicateTx) {
		t.Fatalf("want ErrDuplicateTx, got %v", err)
	}
	// A competing same-nonce tx is pruned once nonce 0 commits.
	tx0dup := mustTx(t, alice, 0, "k", "competing payload")
	if err := mp.Add(tx0dup); err != nil {
		t.Fatal(err)
	}
	appendBlock(t, c, alice, []*Tx{tx0})
	mp.Remove([]*Tx{tx0})
	if mp.Size() != 0 {
		t.Fatalf("stale competing tx not pruned; size=%d", mp.Size())
	}
	if err := mp.Add(mustTx(t, alice, 0, "k", "replay")); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("want ErrStaleNonce, got %v", err)
	}
}

// TestMempoolLanesConcurrentAdd hammers a laned pool from many
// goroutines; run under -race this is the lane-locking regression test.
func TestMempoolLanesConcurrentAdd(t *testing.T) {
	c := NewMemChain()
	mp := NewMempoolLanes(c, 0, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kp := signer("conc" + strconv.Itoa(g))
			for n := 0; n < 50; n++ {
				tx, err := NewTx(kp, uint64(n), "k", []byte{byte(n)})
				if err != nil {
					t.Error(err)
					return
				}
				if err := mp.Add(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if mp.Size() != 400 {
		t.Fatalf("size=%d want 400", mp.Size())
	}
	if got := len(mp.Batch(0)); got != 400 {
		t.Fatalf("batch=%d want 400", got)
	}
}

// TestMempoolNextNonceSkipsPending: the next nonce for a sender starts at
// the chain's and advances past the sender's contiguous pending run, but
// not across a gap.
func TestMempoolNextNonceSkipsPending(t *testing.T) {
	mp := NewMempoolLanes(NewMemChain(), 0, 4)
	kp := signer("nonce-sender")
	sender := kp.Address().String()
	if got := mp.NextNonce(sender); got != 0 {
		t.Fatalf("empty pool next nonce %d, want 0", got)
	}
	for _, n := range []uint64{0, 1, 3} {
		if err := mp.Add(mustTx(t, kp, n, "k", strconv.FormatUint(n, 10))); err != nil {
			t.Fatal(err)
		}
	}
	if got := mp.NextNonce(sender); got != 2 {
		t.Fatalf("next nonce %d, want 2 (after pending 0,1; 3 is past a gap)", got)
	}
	if got := mp.NextNonce(signer("other").Address().String()); got != 0 {
		t.Fatalf("unrelated sender next nonce %d, want 0", got)
	}
}
