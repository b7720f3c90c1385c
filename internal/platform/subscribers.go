package platform

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/commitbus"
	"repro/internal/contract"
	"repro/internal/evidence"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/store"
)

// Platform-owned commit-bus subscriber names (stable: they key
// checkpoint blobs).
const (
	receiptsSubscriberName = "receipts"
	stateSubscriberName    = "contract-state"
	penaltySubscriberName  = "rank-penalties"
)

// ---------------------------------------------------------------------------
// receiptStore: the queryable receipt-by-txid index.
// ---------------------------------------------------------------------------

// receiptStore records every execution receipt (including failures) for
// Platform.Receipt lookups, and checkpoints them so a restored node can
// still answer for pre-checkpoint transactions.
type receiptStore struct {
	mu   sync.RWMutex
	recs map[ledger.TxID]contract.Receipt
}

var _ commitbus.Subscriber = (*receiptStore)(nil)

func newReceiptStore() *receiptStore {
	return &receiptStore{recs: make(map[ledger.TxID]contract.Receipt)}
}

// Name implements commitbus.Subscriber.
func (r *receiptStore) Name() string { return receiptsSubscriberName }

// OnCommit implements commitbus.Subscriber.
func (r *receiptStore) OnCommit(ev commitbus.CommitEvent) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rec := range ev.Receipts {
		r.recs[rec.TxID] = rec
	}
	return nil
}

// Get returns the receipt for a committed transaction.
func (r *receiptStore) Get(id ledger.TxID) (contract.Receipt, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.recs[id]
	return rec, ok
}

// Snapshot implements commitbus.Subscriber. The blob is a uvarint
// receipt count followed by the receipts in transaction-id order:
//
//	txid (32 bytes), ok (1 byte), result, err, uvarint gas,
//	uvarint events, events × (contract, type, uvarint attrs, attrs × (key, value))
//
// Byte runs and strings are uvarint-length-prefixed, and attributes are
// written in key order, so one receipt set always encodes to the same
// bytes.
func (r *receiptStore) Snapshot() ([]byte, error) {
	r.mu.RLock()
	recs := make([]contract.Receipt, 0, len(r.recs))
	size := 8
	for _, rec := range r.recs {
		recs = append(recs, rec)
		size += len(ledger.TxID{}) + len(rec.Result) + len(rec.Err) + 8 + 32*len(rec.Events)
	}
	r.mu.RUnlock()
	slices.SortFunc(recs, func(a, b contract.Receipt) int { return bytes.Compare(a.TxID[:], b.TxID[:]) })
	w := store.NewSnapWriter(size)
	w.Uvarint(uint64(len(recs)))
	var keys []string
	for _, rec := range recs {
		w.Fixed(rec.TxID[:])
		w.Bool(rec.OK)
		w.Bytes(rec.Result)
		w.Str(rec.Err)
		w.Uvarint(rec.GasUsed)
		w.Uvarint(uint64(len(rec.Events)))
		for _, e := range rec.Events {
			w.Str(e.Contract)
			w.Str(e.Type)
			keys = keys[:0]
			for k := range e.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.Uvarint(uint64(len(keys)))
			for _, k := range keys {
				w.Str(k)
				w.Str(e.Attrs[k])
			}
		}
	}
	return w.Data(), nil
}

// decodeReceipts parses a receipts snapshot. It rejects receipts out of
// transaction-id order (which also rules out duplicates), attribute keys
// out of order, and trailing bytes. An empty blob holds no receipts.
func decodeReceipts(data []byte) (map[ledger.TxID]contract.Receipt, error) {
	if len(data) == 0 {
		return map[ledger.TxID]contract.Receipt{}, nil
	}
	rd := store.NewSnapReader(data)
	// A receipt takes at least 32 + 5 bytes: its id, the ok byte, and
	// four empty fields.
	n := rd.Count(len(ledger.TxID{}) + 5)
	recs := make(map[ledger.TxID]contract.Receipt, n)
	var prev ledger.TxID
	for i := 0; i < n && rd.Err() == nil; i++ {
		var rec contract.Receipt
		copy(rec.TxID[:], rd.Fixed(len(rec.TxID)))
		if i > 0 && bytes.Compare(rec.TxID[:], prev[:]) <= 0 {
			rd.Fail("receipt %d out of order", i)
		}
		prev = rec.TxID
		rec.OK = rd.Bool()
		rec.Result = rd.Bytes()
		rec.Err = rd.Str()
		rec.GasUsed = rd.Uvarint()
		if ne := rd.Count(3); ne > 0 {
			rec.Events = make([]contract.Event, ne)
		}
		for j := range rec.Events {
			e := &rec.Events[j]
			e.Contract = rd.Str()
			e.Type = rd.Str()
			na := rd.Count(2)
			if na > 0 {
				e.Attrs = make(map[string]string, na)
			}
			var prevKey string
			for k := 0; k < na && rd.Err() == nil; k++ {
				key := rd.Str()
				if k > 0 && key <= prevKey {
					rd.Fail("receipt %d event %d: attribute %q not after %q", i, j, key, prevKey)
				}
				prevKey = key
				e.Attrs[key] = rd.Str()
			}
		}
		recs[rec.TxID] = rec
	}
	if err := rd.Done(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Restore implements commitbus.Subscriber. A blob that fails to decode
// leaves the store untouched.
func (r *receiptStore) Restore(data []byte) error {
	recs, err := decodeReceipts(data)
	if err != nil {
		return fmt.Errorf("platform: decode receipts: %w", err)
	}
	r.mu.Lock()
	r.recs = recs
	r.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// contractState: snapshot/restore adapter over the engine KV.
// ---------------------------------------------------------------------------

// contractState puts the engine's committed key-value state on the bus.
// Execution already applied the block's writes before publish, so
// OnCommit is a no-op — the subscriber exists for its Snapshot/Restore
// half, which is what lets a checkpointed node skip re-executing the
// whole chain.
type contractState struct {
	engine *contract.Engine
}

var _ commitbus.Subscriber = (*contractState)(nil)

// Name implements commitbus.Subscriber.
func (c *contractState) Name() string { return stateSubscriberName }

// OnCommit implements commitbus.Subscriber.
func (c *contractState) OnCommit(commitbus.CommitEvent) error { return nil }

// Snapshot implements commitbus.Subscriber.
func (c *contractState) Snapshot() ([]byte, error) {
	snap, err := c.engine.StateSnapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("platform: encode contract state: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore implements commitbus.Subscriber.
func (c *contractState) Restore(data []byte) error {
	snap := make(map[string][]byte)
	if len(data) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			return fmt.Errorf("platform: decode contract state: %w", err)
		}
	}
	c.engine.RestoreState(snap)
	return nil
}

// ---------------------------------------------------------------------------
// penaltyForwarder: the accountability loop.
// ---------------------------------------------------------------------------

// penaltyForwarder closes the accountability loop: a recorded consensus
// offence (evidence "slashed" event) burns the offender's ranking stake
// by enqueueing an authority rank.penalize tx, which lands in the next
// block. It is stateless — the enqueued txs live in the mempool and the
// resulting penalties in contract state — so its checkpoint blob is
// empty.
type penaltyForwarder struct {
	p *Platform
}

var _ commitbus.Subscriber = (*penaltyForwarder)(nil)

// Name implements commitbus.Subscriber.
func (f *penaltyForwarder) Name() string { return penaltySubscriberName }

// OnCommit implements commitbus.Subscriber. It runs with p.mu held (the
// bus publishes under the platform commit lock), which
// authoritySubmitLocked requires.
func (f *penaltyForwarder) OnCommit(ev commitbus.CommitEvent) error {
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != evidence.ContractName || e.Type != "slashed" {
				continue
			}
			payload, err := ranking.PenalizePayload(e.Attrs["offender"])
			if err != nil {
				return err
			}
			if err := f.p.authoritySubmitLocked("rank.penalize", payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements commitbus.Subscriber.
func (f *penaltyForwarder) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements commitbus.Subscriber.
func (f *penaltyForwarder) Restore([]byte) error { return nil }
