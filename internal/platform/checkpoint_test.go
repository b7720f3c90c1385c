package platform

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// runWorkload drives a varied block sequence: seeded facts, published
// items, relays, mints and votes, so every derived index (fact index,
// graph, expert miner, receipts, balances) has state worth snapshotting.
func runWorkload(t *testing.T, p *Platform, rounds int) {
	t.Helper()
	if err := p.SeedFact("fact-0", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	voter := p.NewActor("workload-voter")
	if err := p.MintTo(voter.Address(), 10_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		author := p.NewActor("author-" + strconv.Itoa(i%3))
		id := "item-" + strconv.Itoa(i)
		if err := author.PublishNews(id, corpus.TopicPolitics, factText+" issue "+strconv.Itoa(i), nil, ""); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := author.Relay("relay-"+strconv.Itoa(i), id); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if err := voter.Vote(id, true, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// assertSameDerivedState compares every externally observable piece of
// derived state between two nodes that claim to represent the same chain.
func assertSameDerivedState(t *testing.T, a, b *Platform) {
	t.Helper()
	if ha, hb := a.Chain().Height(), b.Chain().Height(); ha != hb {
		t.Fatalf("height %d != %d", ha, hb)
	}
	if ia, ib := a.Chain().HeadID(), b.Chain().HeadID(); ia != ib {
		t.Fatalf("head id %s != %s", ia, ib)
	}
	ra, err := a.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("state root %s != %s", ra, rb)
	}
	if la, lb := a.FactIndex().Len(), b.FactIndex().Len(); la != lb {
		t.Fatalf("fact index %d != %d", la, lb)
	}
	if fa, fb := a.FactIndex().Root(), b.FactIndex().Root(); fa != fb {
		t.Fatalf("fact accumulator root %s != %s", fa, fb)
	}
	if sa, sb := a.Graph().Stats(), b.Graph().Stats(); sa != sb {
		t.Fatalf("graph stats %+v != %+v", sa, sb)
	}
	if ta, tb := len(a.ExpertMiner().Topics()), len(b.ExpertMiner().Topics()); ta != tb {
		t.Fatalf("miner topics %d != %d", ta, tb)
	}
	for _, topic := range a.ExpertMiner().Topics() {
		ia, ib := a.ExpertMiner().TopicItems(topic), b.ExpertMiner().TopicItems(topic)
		if len(ia) != len(ib) {
			t.Fatalf("miner items for %s: %d != %d", topic, len(ia), len(ib))
		}
	}
	// Every committed tx must resolve to the same receipt on both nodes.
	if err := a.Chain().Walk(0, func(blk *ledger.Block) bool {
		for _, tx := range blk.Txs {
			recA, okA := a.Receipt(tx.ID())
			recB, okB := b.Receipt(tx.ID())
			if okA != okB || recA.OK != recB.OK || recA.GasUsed != recB.GasUsed {
				t.Fatalf("receipt mismatch for %s: %+v/%v vs %+v/%v", tx.ID(), recA, okA, recB, okB)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenCheckpointMatchesFullReplay(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 24)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	ckptHeight := p.CheckpointHeight()
	if ckptHeight == 0 || ckptHeight != p.Chain().Height() {
		t.Fatalf("checkpoint height %d, chain %d", ckptHeight, p.Chain().Height())
	}
	// Keep committing past the checkpoint so reopen exercises tail replay.
	tail := p.NewActor("late-author")
	for i := 0; i < 5; i++ {
		if err := tail.PublishNews("late-"+strconv.Itoa(i), corpus.TopicHealth, "late statement "+strconv.Itoa(i), nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	voterAddr := p.NewActor("workload-voter").Address()
	wantBal, err := ranking.Balance(p.Engine(), p.Authority(), voterAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}

	// Reopen via the checkpoint fast path.
	fast, closeFast, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFast()
	if fast.CheckpointHeight() != ckptHeight {
		t.Fatalf("fast open checkpoint height %d want %d (restore path not taken)", fast.CheckpointHeight(), ckptHeight)
	}

	// Reopen via full replay with the checkpoint out of the way.
	if err := os.Rename(filepath.Join(dir, checkpointName), filepath.Join(dir, "ckpt.aside")); err != nil {
		t.Fatal(err)
	}
	full, closeFull, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeFull()
	if full.CheckpointHeight() != 0 {
		t.Fatalf("full replay open reports checkpoint height %d", full.CheckpointHeight())
	}

	assertSameDerivedState(t, fast, full)
	gotBal, err := ranking.Balance(fast.Engine(), fast.Authority(), voterAddr)
	if err != nil || gotBal != wantBal {
		t.Fatalf("balance after fast open %d want %d (err=%v)", gotBal, wantBal, err)
	}
	// The restored node must keep working: commit one more block on each
	// and verify they stay identical.
	for _, node := range []*Platform{fast, full} {
		a := node.NewActor("post-open")
		if err := a.PublishNews("post-open-item", corpus.TopicScience, "post reopen statement", nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	assertSameDerivedState(t, fast, full)
}

func TestOpenFallsBackOnCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 8)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	height := p.Chain().Height()
	root, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	closeFn()

	path := filepath.Join(dir, checkpointName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	if p2.CheckpointHeight() != 0 {
		t.Fatalf("corrupt checkpoint restored (height %d)", p2.CheckpointHeight())
	}
	if p2.Chain().Height() != height {
		t.Fatalf("height %d want %d", p2.Chain().Height(), height)
	}
	root2, err := p2.Engine().StateRoot()
	if err != nil || root2 != root {
		t.Fatalf("state root %s want %s (err=%v)", root2, root, err)
	}
}

func TestOpenRecoversFromTornLogTail(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 6)
	height := p.Chain().Height()
	prevID, err := p.Chain().BlockAt(height - 2)
	if err != nil {
		t.Fatal(err)
	}
	closeFn()

	// Simulate a crash mid-append: chop bytes off the final record so its
	// frame is incomplete.
	path := filepath.Join(dir, chainLogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Chain().Height() != height-1 {
		t.Fatalf("recovered height %d want %d", p2.Chain().Height(), height-1)
	}
	if p2.Chain().HeadID() != prevID.ID() {
		t.Fatalf("recovered head %s want %s", p2.Chain().HeadID(), prevID.ID())
	}
	// The node keeps accepting commits after recovery.
	a := p2.NewActor("after-crash")
	if err := a.PublishNews("after-crash-item", corpus.TopicPolitics, "post crash statement", nil, ""); err != nil {
		t.Fatal(err)
	}
	if p2.Chain().Height() != height {
		t.Fatalf("post-recovery height %d want %d", p2.Chain().Height(), height)
	}
	close2()
}

func TestOpenFallsBackWhenCheckpointBeyondLog(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 6)
	// Checkpoint covers the full chain, then the last block is torn away:
	// the checkpoint now claims a height the log cannot back.
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	height := p.Chain().Height()
	closeFn()

	path := filepath.Join(dir, chainLogName)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}

	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	if p2.CheckpointHeight() != 0 {
		t.Fatalf("stale checkpoint restored (height %d)", p2.CheckpointHeight())
	}
	if p2.Chain().Height() != height-1 {
		t.Fatalf("recovered height %d want %d", p2.Chain().Height(), height-1)
	}
	root, err := p2.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	head, err := p2.Chain().BlockAt(height - 2)
	if err != nil {
		t.Fatal(err)
	}
	if root != head.Header.StateRoot {
		t.Fatal("recovered state root does not match surviving head block")
	}
}

// restoreCount reads trustnews_checkpoint_restore_total for one result.
func restoreCount(t *testing.T, reg *telemetry.Registry, result string) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prefix := `trustnews_checkpoint_restore_total{result="` + result + `"} `
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix)
		}
	}
	return "0"
}

// TestOpenReportsRestoreOutcome: a checkpoint restore is counted and
// traced (one span per subscriber plus the root check under
// platform.restore), and a corrupted checkpoint is counted as a fallback
// that still reopens to the same head and state root.
func TestOpenReportsRestoreOutcome(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, p, 8)
	if err := p.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	head := p.Chain().HeadID()
	root, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	subs := len(p.Bus().Subscribers())
	closeFn()

	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	fast, closeFast, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	closeFast()
	if fast.CheckpointHeight() == 0 {
		t.Fatal("checkpoint restore not taken")
	}
	if got := restoreCount(t, cfg.Telemetry, "checkpoint"); got != "1" {
		t.Fatalf("checkpoint restores = %s, want 1", got)
	}
	spans := cfg.Telemetry.Tracer().Spans()
	var restoreID telemetry.SpanID
	for _, sp := range spans {
		if sp.Name == "platform.restore" {
			restoreID = sp.ID
		}
	}
	children := map[string]int{}
	for _, sp := range spans {
		if restoreID != 0 && sp.Parent == restoreID {
			children[sp.Name]++
		}
	}
	if children["commitbus.restore"] != subs || children["platform.state_root_check"] != 1 {
		t.Fatalf("platform.restore children = %v, want %d commitbus.restore and one root check", children, subs)
	}

	path := filepath.Join(dir, checkpointName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.New()
	slow, closeSlow, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeSlow()
	if got := restoreCount(t, cfg.Telemetry, "fallback"); got != "1" {
		t.Fatalf("fallbacks = %s, want 1", got)
	}
	if got := restoreCount(t, cfg.Telemetry, "checkpoint"); got != "0" {
		t.Fatalf("checkpoint restores after corruption = %s, want 0", got)
	}
	root2, err := slow.Engine().StateRoot()
	if slow.CheckpointHeight() != 0 || slow.Chain().HeadID() != head || err != nil || root2 != root {
		t.Fatalf("fallback reopen: checkpoint %d head %s root %s (err %v), want 0 %s %s",
			slow.CheckpointHeight(), slow.Chain().HeadID(), root2, err, head, root)
	}
}

// v1Checkpoint is the checkpoint payload of format 01 (TNCKPT01): the
// same fields, gob-encoded, with JSON and gob subscriber blobs.
type v1Checkpoint struct {
	Height      uint64
	HeadID      string
	StateHash   string
	Chain       []byte
	Subscribers map[string][]byte
}

// writeV1Checkpoint writes p's derived state as a format-01 checkpoint:
// the search index, receipts and graph in their JSON and gob encodings
// of that format, the other blobs as they are today.
func writeV1Checkpoint(t *testing.T, p *Platform, path string) {
	t.Helper()
	p.FlushSearch()
	blobs, err := p.Bus().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	items := p.Graph().Items()
	if blobs[supplychain.GraphSubscriberName], err = json.Marshal(items); err != nil {
		t.Fatal(err)
	}
	type v1Doc struct {
		ID     string `json:"id"`
		Topic  string `json:"topic"`
		Length int32  `json:"length"`
	}
	type v1Posting struct {
		Doc int32 `json:"d"`
		TF  int32 `json:"f"`
	}
	var index struct {
		Docs     []v1Doc                `json:"docs"`
		Postings map[string][]v1Posting `json:"postings"`
	}
	index.Postings = map[string][]v1Posting{}
	for i, it := range items {
		toks := corpus.Tokenize(it.Text)
		index.Docs = append(index.Docs, v1Doc{ID: it.ID, Topic: string(it.Topic), Length: int32(len(toks))})
		tf := map[string]int32{}
		for _, tok := range toks {
			tf[tok]++
		}
		for term, n := range tf {
			index.Postings[term] = append(index.Postings[term], v1Posting{Doc: int32(i), TF: n})
		}
	}
	if blobs[search.SubscriberName], err = json.Marshal(index); err != nil {
		t.Fatal(err)
	}
	var recs struct{ Receipts []contract.Receipt }
	if err := p.Chain().Walk(0, func(b *ledger.Block) bool {
		for _, tx := range b.Txs {
			if rec, ok := p.Receipt(tx.ID()); ok {
				recs.Receipts = append(recs.Receipts, rec)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		t.Fatal(err)
	}
	blobs[receiptsSubscriberName] = buf.Bytes()

	chainSnap, err := p.chain.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	root, err := p.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v1Checkpoint{
		Height: p.Chain().Height(), HeadID: p.Chain().HeadID().String(), StateHash: root.String(),
		Chain: chainSnap, Subscribers: blobs,
	}); err != nil {
		t.Fatal(err)
	}
	frame := []byte("TNCKPT01")
	frame = binary.BigEndian.AppendUint32(frame, uint32(payload.Len()))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload.Bytes()))
	if err := os.WriteFile(path, append(frame, payload.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFallsBackFromV1Checkpoint: a checkpoint of the previous format
// is not misread: Open falls back to full replay, counts the fallback,
// and reopens to exactly the derived state of the node that wrote it.
func TestOpenFallsBackFromV1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	writer, closeWriter, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer closeWriter()
	runWorkload(t, writer, 12)
	writeV1Checkpoint(t, writer, filepath.Join(dir, checkpointName))

	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	if p.CheckpointHeight() != 0 {
		t.Fatalf("v1 checkpoint restored (height %d)", p.CheckpointHeight())
	}
	if got := restoreCount(t, cfg.Telemetry, "fallback"); got != "1" {
		t.Fatalf("fallbacks = %s, want 1", got)
	}
	assertSameDerivedState(t, p, writer)
}
