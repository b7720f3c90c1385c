package platform

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/aidetect"
	"repro/internal/consensus"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/factdb"
	"repro/internal/identity"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

const factText = "the parliament ratified the border treaty according to the official record"

func newPlatform(t testing.TB) *Platform {
	t.Helper()
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func trained(t testing.TB, p *Platform) {
	t.Helper()
	c := corpus.NewGenerator(11).Generate(400, 400)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), c.Statements); err != nil {
		t.Fatal(err)
	}
}

func TestSeedFactIndexesImmediately(t *testing.T) {
	p := newPlatform(t)
	if err := p.SeedFact("f1", corpus.TopicPolitics, factText); err != nil {
		t.Fatal(err)
	}
	if p.FactIndex().Len() != 1 || !p.FactIndex().Contains(factText) {
		t.Fatal("fact not indexed after commit")
	}
	if p.Chain().Height() != 1 {
		t.Fatalf("height=%d", p.Chain().Height())
	}
}

func TestPublishBuildsGraph(t *testing.T) {
	p := newPlatform(t)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	alice := p.NewActor("alice")
	if err := alice.PublishNews("n1", corpus.TopicPolitics, factText, nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := alice.Relay("n2", "n1"); err != nil {
		t.Fatal(err)
	}
	if p.Graph().Len() != 2 {
		t.Fatalf("graph len=%d", p.Graph().Len())
	}
	tr, err := p.Graph().Trace("n2")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Rooted || tr.Depth != 1 {
		t.Fatalf("trace=%+v", tr)
	}
}

func TestRankItemCombinesSignals(t *testing.T) {
	p := newPlatform(t)
	trained(t, p)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	alice := p.NewActor("alice")
	if err := alice.PublishNews("real", corpus.TopicPolitics, factText, nil, ""); err != nil {
		t.Fatal(err)
	}
	mallory := p.NewActor("mallory")
	fake := "shocking rigged corrupt exposed you won't believe the truth about the treaty"
	if err := mallory.PublishNews("fake", corpus.TopicPolitics, fake, nil, ""); err != nil {
		t.Fatal(err)
	}
	realRank, err := p.RankItem("real", ranking.MechanismCombined)
	if err != nil {
		t.Fatal(err)
	}
	fakeRank, err := p.RankItem("fake", ranking.MechanismCombined)
	if err != nil {
		t.Fatal(err)
	}
	if !realRank.Factual {
		t.Fatalf("real ranked fake: %+v", realRank)
	}
	if fakeRank.Factual {
		t.Fatalf("fake ranked factual: %+v", fakeRank)
	}
	if realRank.Score <= fakeRank.Score {
		t.Fatalf("scores inverted: real=%.3f fake=%.3f", realRank.Score, fakeRank.Score)
	}
}

func TestVoteAndResolvePipeline(t *testing.T) {
	p := newPlatform(t)
	trained(t, p)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	alice := p.NewActor("alice")
	alice.PublishNews("n1", corpus.TopicPolitics, factText, nil, "")

	voters := make([]*Actor, 5)
	for i := range voters {
		voters[i] = p.NewActor("voter" + strconv.Itoa(i))
		if err := p.MintTo(voters[i].Address(), 100); err != nil {
			t.Fatal(err)
		}
		if err := voters[i].Vote("n1", true, 10); err != nil {
			t.Fatal(err)
		}
	}
	rank, err := p.ResolveByRanking("n1")
	if err != nil {
		t.Fatal(err)
	}
	if !rank.Factual || rank.VoteCount != 5 {
		t.Fatalf("rank=%+v", rank)
	}
	// Winners got their stake back (no losers, so no profit).
	bal, err := voters[0].Balance()
	if err != nil {
		t.Fatal(err)
	}
	if bal != 100 {
		t.Fatalf("balance=%d want 100", bal)
	}
	rep, err := voters[0].Reputation()
	if err != nil {
		t.Fatal(err)
	}
	if rep <= ranking.InitialReputation {
		t.Fatalf("rep=%f; correct voters must gain", rep)
	}
}

func TestResolvePromotesToFactDB(t *testing.T) {
	p := newPlatform(t)
	trained(t, p)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	alice := p.NewActor("alice")
	// A verbatim republication of the fact scores ~1.0 and is already in
	// the DB, so publish a *new* factual statement instead and vote it up.
	newFact := "the city council proposed the budget amendment in a public session"
	if err := alice.PublishNews("n1", corpus.TopicPolitics, newFact, nil, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		v := p.NewActor("v" + strconv.Itoa(i))
		p.MintTo(v.Address(), 100)
		if err := v.Vote("n1", true, 20); err != nil {
			t.Fatal(err)
		}
	}
	before := p.FactIndex().Len()
	rank, err := p.ResolveByRanking("n1")
	if err != nil {
		t.Fatal(err)
	}
	if !rank.Factual {
		t.Fatalf("rank=%+v", rank)
	}
	// Unanimous high-rep crowd clears the promotion gate.
	if p.FactIndex().Len() != before+1 {
		t.Fatalf("fact index len=%d want %d", p.FactIndex().Len(), before+1)
	}
	ok, err := factdb.Has(p.Engine(), p.Authority(), newFact)
	if err != nil || !ok {
		t.Fatalf("promoted fact not in DB: %v %v", ok, err)
	}
}

func TestIdentityRegistrationViaActor(t *testing.T) {
	p := newPlatform(t)
	alice := p.NewActor("alice")
	if err := alice.Register("Alice", identity.RoleCreator); err != nil {
		t.Fatal(err)
	}
	rec, err := identity.Lookup(p.Engine(), alice.Address())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != identity.StatusPending {
		t.Fatalf("record=%+v", rec)
	}
	if err := p.VerifyAccount(alice.Address()); err != nil {
		t.Fatal(err)
	}
	if !identity.IsVerified(p.Engine(), alice.Address(), identity.RoleCreator) {
		t.Fatal("not verified")
	}
}

func TestMediaProvenancePipeline(t *testing.T) {
	p := newPlatform(t)
	alice := p.NewActor("alice")
	rng := rand.New(rand.NewSource(5))
	m, err := alice.RegisterMedia(rng, "img1", "cam-7", 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Authentic copy verifies clean.
	check, err := p.CheckMedia("img1", m.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !check.Registered || check.Tampered || check.Owner != alice.Address().String() {
		t.Fatalf("check=%+v", check)
	}
	// A deepfake composite is caught by the reference check.
	tampered := aidetect.Tamper(m, 0.4, rng)
	check2, err := p.CheckMedia("img1", tampered.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !check2.Tampered {
		t.Fatalf("tamper not detected: %+v", check2)
	}
	if check2.BlindScore <= check.BlindScore {
		t.Fatalf("blind score did not rise: %.3f vs %.3f", check2.BlindScore, check.BlindScore)
	}
	// Unregistered media falls back to blind detection only.
	other := aidetect.CaptureMedia(rng, "img2", "cam-8", 4096)
	check3, err := p.CheckMedia("img2", other.Data)
	if err != nil {
		t.Fatal(err)
	}
	if check3.Registered {
		t.Fatalf("check=%+v", check3)
	}
}

func TestMediaDuplicateRegistrationFails(t *testing.T) {
	p := newPlatform(t)
	alice := p.NewActor("alice")
	rng := rand.New(rand.NewSource(6))
	if _, err := alice.RegisterMedia(rng, "img1", "cam", 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.RegisterMedia(rng, "img1", "cam", 1024); err == nil {
		t.Fatal("duplicate media registration accepted")
	}
}

func TestOriginatorAccountabilityEndToEnd(t *testing.T) {
	p := newPlatform(t)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	alice := p.NewActor("alice")
	bob := p.NewActor("bob")
	mallory := p.NewActor("mallory")
	carol := p.NewActor("carol")
	alice.PublishNews("n1", corpus.TopicPolitics, factText, nil, "")
	bob.Relay("n2", "n1")
	fake := "totally different fabricated scandal story about corruption plot"
	mallory.PublishNews("n3", corpus.TopicPolitics, fake, []string{"n2"}, corpus.OpInsert)
	carol.Relay("n4", "n3")

	tr, err := p.Graph().Trace("n4")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Originator != mallory.Address().String() {
		t.Fatalf("originator=%s want mallory=%s", tr.Originator, mallory.Address())
	}
}

func TestExpertsFromLedger(t *testing.T) {
	p := newPlatform(t)
	facts := []string{
		"the senate ratified the border treaty with a margin of 61 to 20",
		"the parliament signed the transparency act in a public session",
		"the city council proposed the budget amendment citing document 401",
	}
	for i, f := range facts {
		p.SeedFact("f"+strconv.Itoa(i), corpus.TopicPolitics, f)
	}
	expert := p.NewActor("expert")
	troll := p.NewActor("troll")
	for i, f := range facts {
		expert.PublishNews("e"+strconv.Itoa(i), corpus.TopicPolitics, f, nil, "")
	}
	troll.PublishNews("t0", corpus.TopicPolitics, "lizard people run the ministry wake up", nil, "")
	top := p.Experts(corpus.TopicPolitics, 1)
	if len(top) != 1 || top[0].Account != expert.Address().String() {
		t.Fatalf("experts=%+v", top)
	}
}

func TestCommitEmptyPoolIsNoop(t *testing.T) {
	p := newPlatform(t)
	blk, recs, err := p.Commit()
	if err != nil || blk != nil || recs != nil {
		t.Fatalf("blk=%v recs=%v err=%v", blk, recs, err)
	}
	if p.Chain().Height() != 0 {
		t.Fatalf("height=%d", p.Chain().Height())
	}
}

func TestFailedTxReceiptSurfaces(t *testing.T) {
	p := newPlatform(t)
	alice := p.NewActor("alice")
	// Voting without balance fails in-contract.
	payload, _ := ranking.VotePayload("ghost-item", true, 10)
	_, err := alice.MustExec("rank.vote", payload)
	if err == nil {
		t.Fatal("expected failure")
	}
}

func TestBatchedCommitsAcrossManyActors(t *testing.T) {
	p := newPlatform(t)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	// Many actors enqueue before one commit: exercises nonce ordering and
	// the block batch path.
	actors := make([]*Actor, 30)
	for i := range actors {
		actors[i] = p.NewActor("bulk" + strconv.Itoa(i))
		payload, _ := supplychain.PublishPayload("bulk-n"+strconv.Itoa(i), corpus.TopicPolitics, factText, nil, "")
		if _, err := actors[i].Send("news.publish", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if p.Graph().Len() != 30 {
		t.Fatalf("graph len=%d", p.Graph().Len())
	}
}

func BenchmarkEndToEndPublish(b *testing.B) {
	p := newPlatform(b)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	alice := p.NewActor("alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := alice.PublishNews("n"+strconv.Itoa(i), corpus.TopicPolitics, factText, nil, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEquivocationEvidenceSlashesOnPlatform(t *testing.T) {
	p := newPlatform(t)
	// The byzantine account holds tokens and reputation...
	byz := keys.FromSeed([]byte("byzantine-validator"))
	if err := p.MintTo(keys.AddressFromPub(byz.Public()), 500); err != nil {
		t.Fatal(err)
	}
	// ...and signs two conflicting precommits, observed by a reporter.
	a := consensus.Vote{Type: consensus.VotePrecommit, Height: 9, Round: 0, BlockID: ledger.BlockID{1}, Voter: byz.Address()}
	b := consensus.Vote{Type: consensus.VotePrecommit, Height: 9, Round: 0, BlockID: ledger.BlockID{2}, Voter: byz.Address()}
	consensus.SignVote(&a, byz)
	consensus.SignVote(&b, byz)
	payload, err := evidence.SubmitPayload(a, b, byz.Public())
	if err != nil {
		t.Fatal(err)
	}
	reporter := p.NewActor("reporter")
	if _, err := reporter.MustExec("evidence.submit", payload); err != nil {
		t.Fatal(err)
	}
	// The platform's indexer enqueued the penalty; drain the pool.
	if err := p.CommitAll(); err != nil {
		t.Fatal(err)
	}
	slashed, err := evidence.IsSlashed(p.Engine(), p.Authority(), byz.Address())
	if err != nil || !slashed {
		t.Fatalf("slashed=%v err=%v", slashed, err)
	}
	bal, err := ranking.Balance(p.Engine(), p.Authority(), byz.Address())
	if err != nil || bal != 0 {
		t.Fatalf("balance=%d err=%v; stake must be burned", bal, err)
	}
	rep, err := ranking.Reputation(p.Engine(), p.Authority(), byz.Address())
	if err != nil || rep > 0.011 {
		t.Fatalf("rep=%f err=%v; reputation must be floored", rep, err)
	}
}

func TestCreatorRewardOnFactualResolution(t *testing.T) {
	p := newPlatform(t)
	p.SeedFact("f1", corpus.TopicPolitics, factText)
	journo := p.NewActor("rewarded-journalist")
	if err := journo.PublishNews("n1", corpus.TopicPolitics, factText, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ResolveByRanking("n1"); err != nil {
		t.Fatal(err)
	}
	bal, err := journo.Balance()
	if err != nil {
		t.Fatal(err)
	}
	if bal != DefaultConfig().CreatorReward {
		t.Fatalf("creator balance=%d want %d", bal, DefaultConfig().CreatorReward)
	}
	// A fake item earns nothing.
	troll := p.NewActor("unrewarded-troll")
	if err := troll.PublishNews("fab", corpus.TopicPolitics, "invented nonsense hoax claim entirely", nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ResolveByRanking("fab"); err != nil {
		t.Fatal(err)
	}
	tb, _ := troll.Balance()
	if tb != 0 {
		t.Fatalf("troll balance=%d want 0", tb)
	}
}
