package platform

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/ranking"
	"repro/internal/store"
)

func TestDurablePlatformSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	// Session 1: seed facts, publish items, vote, resolve.
	p1, close1, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.SeedFact("f1", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	alice := p1.NewActor("alice")
	if err := alice.PublishNews("n1", corpus.TopicPolitics, factText, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := alice.Relay("n2", "n1"); err != nil {
		t.Fatal(err)
	}
	voter := p1.NewActor("voter")
	if err := p1.MintTo(voter.Address(), 100); err != nil {
		t.Fatal(err)
	}
	if err := voter.Vote("n1", true, 25); err != nil {
		t.Fatal(err)
	}
	height := p1.Chain().Height()
	root1, err := p1.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := close1(); err != nil {
		t.Fatal(err)
	}

	// Session 2: everything is rebuilt from the log.
	p2, close2, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer close2()
	if p2.Chain().Height() != height {
		t.Fatalf("height=%d want %d", p2.Chain().Height(), height)
	}
	root2, err := p2.Engine().StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if root2 != root1 {
		t.Fatal("state root changed across restart")
	}
	if p2.Graph().Len() != 2 || p2.FactIndex().Len() != 1 {
		t.Fatalf("indexes not rebuilt: graph=%d facts=%d", p2.Graph().Len(), p2.FactIndex().Len())
	}
	tr, err := p2.Graph().Trace("n2")
	if err != nil || !tr.Rooted {
		t.Fatalf("trace after restart: %+v err=%v", tr, err)
	}
	// Balances and votes survive.
	bal, err := ranking.Balance(p2.Engine(), p2.Authority(), p1.NewActor("voter").Address())
	if err != nil || bal != 75 {
		t.Fatalf("balance=%d err=%v", bal, err)
	}
	votes, err := ranking.Votes(p2.Engine(), p2.Authority(), "n1")
	if err != nil || len(votes) != 1 {
		t.Fatalf("votes=%v err=%v", votes, err)
	}
	// And the platform keeps working: resolve the carried-over vote.
	if _, err := p2.ResolveByRanking("n1"); err != nil {
		t.Fatal(err)
	}
}

func TestDurablePlatformDetectsTamperedLog(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedFact("f1", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	a := p.NewActor("a")
	for i := 0; i < 3; i++ {
		if err := a.PublishNews("n"+strconv.Itoa(i), corpus.TopicPolitics, factText, nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	closeFn()

	path := filepath.Join(dir, "chain.log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, DefaultConfig()); err == nil {
		t.Fatal("tampered chain log accepted")
	}
}

func TestFullReplayRejectsWrongHeadStateRoot(t *testing.T) {
	dir := t.TempDir()
	p, closeFn, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SeedFact("f1", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	closeFn()

	// Append a well-linked head block whose header commits to a state
	// root no replay can reach. No checkpoint exists, so Open replays.
	wal, err := store.OpenFileLog(filepath.Join(dir, chainLogName))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ledger.NewChain(wal)
	if err != nil {
		t.Fatal(err)
	}
	wrong := merkle.Hash{0xde, 0xad}
	blk := ledger.NewBlock(chain.Height(), chain.HeadID(), wrong, time.Unix(1, 0), keys.FromSeed([]byte("proposer")).Address(), nil)
	if err := chain.Append(blk); err != nil {
		t.Fatal(err)
	}
	wal.Close()

	_, _, err = Open(dir, DefaultConfig())
	if err == nil {
		t.Fatal("full replay accepted a head block with a wrong state root")
	}
	if !strings.Contains(err.Error(), "state root") {
		t.Fatalf("want a state-root mismatch, got %v", err)
	}
}

func TestDurablePlatformManyRestarts(t *testing.T) {
	dir := t.TempDir()
	for session := 0; session < 4; session++ {
		p, closeFn, err := Open(dir, DefaultConfig())
		if err != nil {
			t.Fatalf("session %d: %v", session, err)
		}
		a := p.NewActor("writer")
		id := "item-" + strconv.Itoa(session)
		if err := a.PublishNews(id, corpus.TopicPolitics, "statement "+strconv.Itoa(session), nil, ""); err != nil {
			t.Fatalf("session %d: %v", session, err)
		}
		if p.Graph().Len() != session+1 {
			t.Fatalf("session %d: graph=%d", session, p.Graph().Len())
		}
		closeFn()
	}
}
