package search

import (
	"math"
	"slices"
	"sort"

	"repro/internal/store"
)

// Snapshot format. The blob is self-contained and independent of shard
// count and segment layout, so two nodes holding the same corpus write
// identical bytes however they arranged their segments:
//
//	docs:  uvarint n, then n × (id, topic, uvarint token count)
//	terms: uvarint m, then m × (term, uvarint k, k × (uvarint doc delta, uvarint tf))
//
// Strings are uvarint-length-prefixed. Terms are strictly increasing.
// Each posting list is sorted by doc index and stores doc+1 for its
// first entry and the gap to the previous doc after that, so every
// delta is at least 1 and a list can only move forward through the doc
// table.

// encodeSnapshot captures the published index state. It refreshes first,
// so documents added but not yet sealed are included.
func (x *Index) encodeSnapshot() []byte {
	x.wmu.Lock()
	x.refreshLocked()
	docs := x.docs.Load()
	x.wmu.Unlock()

	// Every term lives in exactly one shard; merge its segments.
	postings := make(map[string][]posting)
	for _, sh := range x.shards {
		for _, seg := range sh.view.Load().segments {
			for term, ps := range seg.postings {
				postings[term] = append(postings[term], ps...)
			}
		}
	}
	terms := make([]string, 0, len(postings))
	size := 16
	for term, ps := range postings {
		terms = append(terms, term)
		size += len(term) + 2 + 3*len(ps)
	}
	sort.Strings(terms)
	for _, d := range docs.infos {
		size += len(d.ID) + len(d.Topic) + 4
	}

	w := store.NewSnapWriter(size)
	w.Uvarint(uint64(len(docs.infos)))
	for _, d := range docs.infos {
		w.Str(d.ID)
		w.Str(d.Topic)
		w.Uvarint(uint64(d.Length))
	}
	w.Uvarint(uint64(len(terms)))
	for _, term := range terms {
		ps := postings[term]
		if !slices.IsSortedFunc(ps, cmpPosting) {
			slices.SortFunc(ps, cmpPosting)
		}
		w.Str(term)
		w.Uvarint(uint64(len(ps)))
		prev := int64(-1)
		for _, p := range ps {
			w.Uvarint(uint64(int64(p.Doc) - prev))
			w.Uvarint(uint64(p.TF))
			prev = int64(p.Doc)
		}
	}
	return w.Data()
}

func cmpPosting(a, b posting) int { return int(a.Doc) - int(b.Doc) }

// decodedIndex is a parsed snapshot, ready to install.
type decodedIndex struct {
	infos    []docInfo
	byID     map[string]int32
	totalLen int64
	// shards holds each term shard's posting lists, indexed like
	// Index.shards.
	shards []map[string][]posting
}

// decodeSnapshot parses a snapshot blob for this index's shard layout.
// It rejects duplicate doc ids, terms out of order, posting lists that
// do not strictly increase or that point past the doc table, and
// trailing bytes. An empty blob is the empty index.
func (x *Index) decodeSnapshot(data []byte) (*decodedIndex, error) {
	d := &decodedIndex{shards: make([]map[string][]posting, len(x.shards))}
	for i := range d.shards {
		d.shards[i] = make(map[string][]posting)
	}
	if len(data) == 0 {
		d.byID = map[string]int32{}
		return d, nil
	}
	r := store.NewSnapReader(data)
	// A doc takes at least three bytes: two empty strings and a count.
	n := r.Count(3)
	d.infos = make([]docInfo, n)
	d.byID = make(map[string]int32, n)
	topics := make(map[string]string)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := r.Str()
		raw := r.Fixed(r.Count(1))
		topic, ok := topics[string(raw)]
		if !ok {
			topic = string(raw)
			topics[topic] = topic
		}
		length := r.Uvarint()
		if length > math.MaxInt32 {
			r.Fail("doc %d length %d", i, length)
		}
		if _, dup := d.byID[id]; dup {
			r.Fail("duplicate doc %q", id)
		}
		d.infos[i] = docInfo{ID: id, Topic: topic, Length: int32(length)}
		d.byID[id] = int32(i)
		d.totalLen += int64(length)
	}
	// A term takes at least two bytes: a non-empty string or an empty
	// one plus its posting count.
	m := r.Count(2)
	var prevTerm string
	for t := 0; t < m && r.Err() == nil; t++ {
		term := r.Str()
		if t > 0 && term <= prevTerm {
			r.Fail("term %q not after %q", term, prevTerm)
		}
		prevTerm = term
		ps := make([]posting, r.Count(2))
		doc := int64(-1)
		for j := range ps {
			delta, tf := r.Uvarint(), r.Uvarint()
			if delta == 0 || delta > uint64(n) || doc+int64(delta) >= int64(n) || tf > math.MaxInt32 {
				r.Fail("term %q posting %d: delta %d tf %d over %d docs", term, j, delta, tf, n)
				break
			}
			doc += int64(delta)
			ps[j] = posting{Doc: int32(doc), TF: int32(tf)}
		}
		if r.Err() == nil {
			d.shards[x.shardIndex(term)][term] = ps
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return d, nil
}

// install replaces the index state wholesale with a decoded snapshot:
// the doc table in internal order, and each shard's postings as one
// sealed segment.
func (x *Index) install(d *decodedIndex) {
	x.wmu.Lock()
	defer x.wmu.Unlock()
	x.byID = d.byID
	x.infos = d.infos
	x.totalLen = d.totalLen
	x.memDocs = 0
	x.docs.Store(&docsView{infos: x.infos[:len(x.infos):len(x.infos)], totalLen: x.totalLen})
	for i, sh := range x.shards {
		sh.mu.Lock()
		sh.mem = make(map[string][]posting)
		sh.memDocs = 0
		if m := d.shards[i]; len(m) > 0 {
			sh.view.Store(&shardView{segments: []*segment{{postings: m, docs: len(x.infos)}}})
		} else {
			sh.view.Store(&shardView{})
		}
		sh.mu.Unlock()
	}
}
