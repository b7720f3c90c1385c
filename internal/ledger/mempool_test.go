package ledger

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMempoolRejectionsAndRemove checks duplicate rejection, commit-time
// pruning of a competing same-nonce tx, and stale-nonce rejection of a
// replay once the nonce has committed.
func TestMempoolRejectionsAndRemove(t *testing.T) {
	alice := signer("alice")
	c := NewMemChain()
	mp := NewMempool(c, 0)
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

// TestMempoolConcurrentAdd hammers the pool from many goroutines; under
// -race this is the pool's locking regression test.
func TestMempoolConcurrentAdd(t *testing.T) {
	mp := NewMempool(NewMemChain(), 0)
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

// TestMempoolConcurrentAddCapacity races more admissions than the pool
// holds: exactly capacity of them are admitted and every other one is
// rejected with ErrMempoolFull.
func TestMempoolConcurrentAddCapacity(t *testing.T) {
	const capacity, senders, perSender = 20, 16, 4
	mp := NewMempool(NewMemChain(), capacity)
	var full atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kp := signer("cap" + strconv.Itoa(g))
			for n := 0; n < perSender; n++ {
				tx, err := NewTx(kp, uint64(n), "k", []byte("x"))
				if err != nil {
					t.Error(err)
					return
				}
				switch err := mp.Add(tx); {
				case errors.Is(err, ErrMempoolFull):
					full.Add(1)
				case err != nil:
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if mp.Size() != capacity {
		t.Fatalf("size=%d want capacity %d", mp.Size(), capacity)
	}
	if got, want := full.Load(), int64(senders*perSender-capacity); got != want {
		t.Fatalf("rejected=%d want %d", got, want)
	}
}

// TestMempoolNextNonceSkipsPending: the next nonce for a sender starts at
// the chain's and advances past the sender's contiguous pending run, but
// not across a gap.
func TestMempoolNextNonceSkipsPending(t *testing.T) {
	mp := NewMempool(NewMemChain(), 0)
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
