package search

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/store"
)

// snapshotOf builds a subscriber over a few documents and returns its
// snapshot blob.
func snapshotOf(t testing.TB, shards int, docs ...[3]string) []byte {
	t.Helper()
	sub := NewSubscriber(NewSharded(shards), nil)
	for _, d := range docs {
		sub.Index.Add(d[0], d[1], d[2])
	}
	blob, err := sub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// checkDocRefs fails if any published posting points past the doc table.
func checkDocRefs(t *testing.T, x *Index) {
	t.Helper()
	n := x.Docs()
	for _, sh := range x.shards {
		for _, seg := range sh.view.Load().segments {
			for term, ps := range seg.postings {
				for _, p := range ps {
					if p.Doc < 0 || int(p.Doc) >= n {
						t.Fatalf("term %q references doc %d of %d", term, p.Doc, n)
					}
				}
			}
		}
	}
}

// TestSnapshotRoundTripPreservesQueries: a restored index answers every
// query exactly like the original, and re-encodes to the same bytes.
func TestSnapshotRoundTripPreservesQueries(t *testing.T) {
	sub := NewSubscriber(NewSharded(8), nil)
	for i := 0; i < 300; i++ {
		sub.Index.Add(fmt.Sprintf("doc-%03d", i), fmt.Sprintf("topic-%d", i%4),
			fmt.Sprintf("budget vote %d committee report word%d word%d", i%7, i%13, i%29))
		if i%37 == 0 {
			sub.Index.Refresh()
		}
	}
	blob, err := sub.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re := NewSubscriber(NewSharded(3), nil)
	if err := re.Restore(blob); err != nil {
		t.Fatal(err)
	}
	checkDocRefs(t, re.Index)
	for _, q := range []string{"budget", "committee word3", "word28 vote", "missing"} {
		for _, rk := range []Ranker{RankBM25, RankTFIDF} {
			want := sub.Index.QueryPage(q, rk, 0, 0)
			got := re.Index.QueryPage(q, rk, 0, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %q: restored %+v, want %+v", rk, q, got, want)
			}
		}
	}
	again, err := re.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-encoded snapshot differs")
	}
	// The restored index keeps indexing on top of the snapshot.
	re.Index.Add("doc-new", "topic-0", "budget freshly committed")
	re.Index.Refresh()
	if res := re.Index.Query("freshly", 0); len(res) != 1 || res[0].ID != "doc-new" {
		t.Fatalf("post-restore add: %v", res)
	}
}

// TestSnapshotDecodeRejectsMalformed: each structural check of the
// decoder fires, and a failed restore leaves the index as it was.
func TestSnapshotDecodeRejectsMalformed(t *testing.T) {
	valid := snapshotOf(t, 4, [3]string{"a", "t", "alpha beta"}, [3]string{"b", "t", "beta gamma"})
	enc := func(fill func(w *store.SnapWriter)) []byte {
		w := store.NewSnapWriter(0)
		fill(w)
		return w.Data()
	}
	docs := func(w *store.SnapWriter, ids ...string) {
		w.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			w.Str(id)
			w.Str("t")
			w.Uvarint(1)
		}
	}
	cases := map[string][]byte{
		"trailing byte": append(append([]byte(nil), valid...), 0),
		"truncated":     valid[:len(valid)-1],
		"duplicate doc": enc(func(w *store.SnapWriter) { docs(w, "a", "a"); w.Uvarint(0) }),
		"terms out of order": enc(func(w *store.SnapWriter) {
			docs(w, "a")
			w.Uvarint(2)
			w.Str("b")
			w.Uvarint(1)
			w.Uvarint(1)
			w.Uvarint(1)
			w.Str("a")
			w.Uvarint(1)
			w.Uvarint(1)
			w.Uvarint(1)
		}),
		"posting not increasing": enc(func(w *store.SnapWriter) {
			docs(w, "a", "b")
			w.Uvarint(1)
			w.Str("x")
			w.Uvarint(2)
			w.Uvarint(1)
			w.Uvarint(1)
			w.Uvarint(0)
			w.Uvarint(1)
		}),
		"posting past doc table": enc(func(w *store.SnapWriter) {
			docs(w, "a")
			w.Uvarint(1)
			w.Str("x")
			w.Uvarint(1)
			w.Uvarint(2)
			w.Uvarint(1)
		}),
		"count beyond input": enc(func(w *store.SnapWriter) { w.Uvarint(1 << 40) }),
	}
	for name, blob := range cases {
		sub := NewSubscriber(New(), nil)
		sub.Index.Add("keep", "t", "kept document")
		if err := sub.Restore(blob); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if sub.Index.Docs() != 1 || len(sub.Index.Query("kept", 0)) != 1 {
			t.Fatalf("%s: failed restore changed the index", name)
		}
	}
}

// FuzzSearchSnapshot: decoding arbitrary bytes never panics; a decoded
// index never references a missing doc and answers queries; and
// encode → decode → encode is byte-identical, whatever the shard count
// on either side.
func FuzzSearchSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(snapshotOf(f, 4))
	f.Add(snapshotOf(f, 4, [3]string{"a", "econ", "the budget passed"}, [3]string{"b", "sport", "the match ended"}))
	f.Add(snapshotOf(f, 1, [3]string{"x", "t", "one two three two one"}, [3]string{"y", "t", "three four"}, [3]string{"z", "u", ""}))
	f.Fuzz(func(t *testing.T, data []byte) {
		sub := NewSubscriber(NewSharded(4), nil)
		if err := sub.Restore(data); err != nil {
			return
		}
		checkDocRefs(t, sub.Index)
		for _, q := range []string{"budget", "two three", "a"} {
			sub.Index.Query(q, 5)
		}
		first, err := sub.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		re := NewSubscriber(NewSharded(3), nil)
		if err := re.Restore(first); err != nil {
			t.Fatalf("re-decoding an encoded index: %v", err)
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
