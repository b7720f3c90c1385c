package supplychain

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/store"
)

// graphSnapshotOf snapshots a graph holding the given items.
func graphSnapshotOf(t testing.TB, items ...Item) []byte {
	t.Helper()
	s := &GraphSubscriber{Graph: NewGraph(newFactIndex())}
	for _, it := range items {
		if err := s.Graph.AddItem(it); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func sampleItems() []Item {
	root := item("n1", "alice", factText, "")
	root.Height = 3
	off := Item{ID: "n2", Topic: corpus.TopicHealth, CID: "cid-abc", Size: 2048, Creator: addr("bob"), Height: 4}
	relay := item("n3", "carol", factText+" extra", corpus.OpInsert, "n1", "n2")
	relay.Height = 9
	return []Item{root, off, relay, item("n4", "dave", "unrelated", corpus.OpVerbatim, "n3")}
}

// TestGraphSnapshotRoundTrip: items (parents, off-chain references,
// heights) survive a snapshot, and the restored graph re-encodes to the
// same bytes and traces the same way.
func TestGraphSnapshotRoundTrip(t *testing.T) {
	items := sampleItems()
	blob := graphSnapshotOf(t, items...)
	re := &GraphSubscriber{Graph: NewGraph(newFactIndex())}
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if got := re.Graph.Items(); !reflect.DeepEqual(got, items) {
		t.Fatalf("restored items:\n%+v\nwant\n%+v", got, items)
	}
	again, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoded snapshot differs")
	}
	tr, err := re.Graph.Trace("n3")
	if err != nil || !tr.Rooted || tr.Path[len(tr.Path)-1] != "n1" {
		t.Fatalf("trace after restore: %+v %v", tr, err)
	}
	if err := re.Restore(nil); err != nil || re.Graph.Len() != 0 {
		t.Fatalf("empty restore: len %d err %v", re.Graph.Len(), err)
	}
}

// rawGraph encodes items given only by id and parent indexes, bypassing
// the graph's own checks.
func rawGraph(items ...[]uint64) []byte {
	w := store.NewSnapWriter(0)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.Str("dup")
		for i := 0; i < 3; i++ {
			w.Str("")
		}
		w.Varint(0)
		w.Str("")
		w.Uvarint(uint64(len(it)))
		for _, p := range it {
			w.Uvarint(p)
		}
		w.Str("")
		w.Uvarint(0)
	}
	return w.Data()
}

// TestGraphSnapshotRejectsMalformed: bad parent indexes, duplicate ids
// and trailing bytes fail the restore and leave the graph as it was.
func TestGraphSnapshotRejectsMalformed(t *testing.T) {
	valid := graphSnapshotOf(t, sampleItems()...)
	for name, blob := range map[string][]byte{
		"self parent":   rawGraph([]uint64{0}),
		"later parent":  rawGraph(nil, []uint64{2}, nil),
		"duplicate id":  rawGraph(nil, nil),
		"trailing byte": append(append([]byte(nil), valid...), 0),
		"truncated":     valid[:len(valid)-2],
	} {
		s := &GraphSubscriber{Graph: NewGraph(newFactIndex())}
		mustAdd(t, s.Graph, item("keep", "alice", "kept", ""))
		if err := s.Restore(blob); err == nil {
			t.Fatalf("%s: restored without error", name)
		}
		if s.Graph.Len() != 1 {
			t.Fatalf("%s: failed restore changed the graph", name)
		}
	}
}

// FuzzGraphSnapshot: decoding arbitrary bytes never panics, and for any
// blob that restores, encode → decode → encode is byte-identical.
func FuzzGraphSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(graphSnapshotOf(f))
	f.Add(graphSnapshotOf(f, sampleItems()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &GraphSubscriber{Graph: NewGraph(newFactIndex())}
		if err := s.Restore(data); err != nil {
			return
		}
		first, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		re := &GraphSubscriber{Graph: NewGraph(newFactIndex())}
		if err := re.Restore(first); err != nil {
			t.Fatalf("re-decoding an encoded graph: %v", err)
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
