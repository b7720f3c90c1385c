package platform

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/contract"
	"repro/internal/ledger"
)

func sampleReceipts() *receiptStore {
	r := newReceiptStore()
	for i, rec := range []contract.Receipt{
		{OK: true, Result: []byte(`{"id":"n1"}`), GasUsed: 120, Events: []contract.Event{
			{Contract: "news", Type: "published", Attrs: map[string]string{"id": "n1", "topic": "politics", "creator": "ab12"}},
			{Contract: "ranking", Type: "staked", Attrs: map[string]string{"amount": "5"}},
		}},
		{OK: false, Err: "news: parent not found", GasUsed: 7},
		{OK: true, GasUsed: 1 << 40},
	} {
		rec.TxID = ledger.TxID{byte(3 - i), 0xaa, byte(i)}
		r.recs[rec.TxID] = rec
	}
	return r
}

// TestReceiptSnapshotRoundTrip: every field of every receipt survives a
// snapshot, and the restored store re-encodes to the same bytes.
func TestReceiptSnapshotRoundTrip(t *testing.T) {
	src := sampleReceipts()
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := newReceiptStore()
	if err := dst.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.recs, src.recs) {
		t.Fatalf("restored receipts:\n%+v\nwant\n%+v", dst.recs, src.recs)
	}
	again, err := dst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoded snapshot differs")
	}
	if err := dst.Restore(nil); err != nil || len(dst.recs) != 0 {
		t.Fatalf("empty restore: %d receipts, err %v", len(dst.recs), err)
	}
}

// TestReceiptSnapshotRejectsMalformed: truncation, trailing bytes and a
// repeated transaction id fail the restore and leave the store as it was.
func TestReceiptSnapshotRejectsMalformed(t *testing.T) {
	blob, err := sampleReceipts().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Two copies of the first receipt under a count of two.
	one := &receiptStore{recs: map[ledger.TxID]contract.Receipt{{1}: {TxID: ledger.TxID{1}, OK: true}}}
	single, err := one.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	repeated := append([]byte{2}, single[1:]...)
	repeated = append(repeated, single[1:]...)
	for name, bad := range map[string][]byte{
		"truncated":     blob[:len(blob)-1],
		"trailing byte": append(append([]byte(nil), blob...), 0),
		"repeated id":   repeated,
	} {
		r := sampleReceipts()
		if err := r.Restore(bad); err == nil {
			t.Fatalf("%s: restored without error", name)
		}
		if len(r.recs) != 3 {
			t.Fatalf("%s: failed restore changed the store", name)
		}
	}
}

// FuzzReceiptSnapshot: decoding arbitrary bytes never panics, and for
// any blob that decodes, encode → decode → encode is byte-identical.
func FuzzReceiptSnapshot(f *testing.F) {
	f.Add([]byte{})
	empty, _ := newReceiptStore().Snapshot()
	f.Add(empty)
	full, _ := sampleReceipts().Snapshot()
	f.Add(full)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReceiptStore()
		if err := r.Restore(data); err != nil {
			return
		}
		first, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		re := newReceiptStore()
		if err := re.Restore(first); err != nil {
			t.Fatalf("re-decoding encoded receipts: %v", err)
		}
		second, err := re.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encode → decode → encode differs:\n%x\n%x", first, second)
		}
	})
}
