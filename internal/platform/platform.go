// Package platform assembles the AI blockchain trusting-news platform —
// contribution (4) of the paper and the system of Fig. 1. It wires the
// smart contracts (identity, factdb, news, rank, newsroom, media) into one
// contract engine over a validated chain, attaches the AI components, and
// maintains the two derived indexes the mechanisms need: the factual
// database similarity index and the news supply-chain graph, both rebuilt
// incrementally from contract events as blocks commit.
//
// A Platform can run standalone (it mines its own blocks, which is what
// the examples and most experiments use) or as the application under BFT
// consensus (see internal/consensus.ChainApp).
package platform

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/aidetect"
	"repro/internal/blobstore"
	"repro/internal/commitbus"
	"repro/internal/contract"
	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/factdb"
	"repro/internal/identity"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/newsroom"
	"repro/internal/ranking"
	"repro/internal/search"
	"repro/internal/supplychain"
	"repro/internal/telemetry"
)

// Errors returned by this package.
var (
	// ErrTxFailed indicates a transaction whose receipt is not OK.
	ErrTxFailed = errors.New("platform: transaction failed")
	// ErrNotTrained indicates ranking before TrainClassifier.
	ErrNotTrained = errors.New("platform: AI classifier not trained")
)

// Config tunes a platform node.
type Config struct {
	// AuthoritySeed derives the platform authority key.
	AuthoritySeed string
	// PromoteThreshold gates factual-database promotion (default 0.9).
	PromoteThreshold float64
	// MaxTxsPerBlock bounds standalone block size (default 512).
	MaxTxsPerBlock int
	// MempoolCapacity bounds the pending-transaction pool. Zero derives a
	// default scaled to MaxTxsPerBlock (at least 128 blocks' worth, never
	// below 65536).
	MempoolCapacity int
	// Weights tunes the combined ranking mechanism.
	Weights ranking.Weights
	// CreatorReward is minted to an item's creator when it resolves
	// factual (Fig. 2's incentive for content creators; default 25).
	CreatorReward uint64
	// OffChainBodies routes Actor.PublishNews bodies through the blob
	// store: the transaction carries only {CID, size}, and the body is
	// content-addressed off-chain (the platform's in-process stand-in for
	// the IPFS deployments of DClaims-style systems). DefaultConfig
	// enables it; a zero Config keeps the legacy inline path.
	OffChainBodies bool
	// BlobChunkSize sets the blob store's chunk granularity (default
	// blobstore.DefaultChunkSize).
	BlobChunkSize int
	// BlobDir, when non-empty, backs the blob store with files under this
	// directory. Open derives it from the node's data directory.
	BlobDir string
	// MaxTxPayloadBytes tightens the mempool's admission-time payload cap
	// (0 keeps ledger.DefaultMempoolPayloadBytes). The consensus hard cap
	// ledger.MaxTxPayloadBytes applies regardless.
	MaxTxPayloadBytes int
	// VerifyWorkers sets the block-verification worker-pool width (0 means
	// GOMAXPROCS). Mempool admission, consensus proposal validation,
	// Chain.Append and checkpoint replay all share the pool and its
	// signature cache.
	VerifyWorkers int
	// SerialVerify forces single-threaded block verification — the
	// baseline kept for perf comparisons (EXPERIMENTS.md E18). The
	// signature cache stays active.
	SerialVerify bool
	// SigCacheCapacity bounds the verified-signature cache (0 means
	// ledger.DefaultSigCacheCapacity).
	SigCacheCapacity int
	// Telemetry, when non-nil, instruments the node's hot paths (mempool,
	// blob store, commit bus, commits) on the given registry and enables
	// span tracing. Nil — the default — keeps every instrument a no-op, so
	// library users pay nothing.
	Telemetry *telemetry.Registry
	// Admission, when non-nil, enables platform-wide admission control:
	// Submit passes through a bounded-concurrency gate with CoDel-style
	// queue-delay shedding, blob reads at the API edge are gated the
	// same way, and the HTTP gateway enforces any static per-route rate
	// limits. Shed requests fail fast with admission.ErrOverCapacity
	// (HTTP 429) instead of queueing without bound. Nil — the default —
	// admits everything, so existing callers are unaffected.
	Admission *admission.Config
}

// defaultMempoolCapacity scales the pending pool to the block size: room
// for at least 128 full blocks, never below the historical 1<<16 floor.
func defaultMempoolCapacity(maxTxsPerBlock int) int {
	capacity := 128 * maxTxsPerBlock
	if capacity < 1<<16 {
		capacity = 1 << 16
	}
	return capacity
}

// newVerifier builds the node's verification pipeline from the config: a
// worker pool over a bounded verified-signature cache.
func newVerifier(cfg Config) *ledger.Verifier {
	v := ledger.NewVerifier(ledger.NewSigCache(cfg.SigCacheCapacity), cfg.VerifyWorkers)
	v.SetSerial(cfg.SerialVerify)
	return v
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{
		AuthoritySeed:    "platform-authority",
		PromoteThreshold: 0.9,
		MaxTxsPerBlock:   512,
		Weights:          ranking.DefaultWeights(),
		CreatorReward:    25,
		OffChainBodies:   true,
		BlobChunkSize:    blobstore.DefaultChunkSize,
	}
}

// Platform is one trusting-news node.
type Platform struct {
	mu sync.Mutex

	cfg       Config
	engine    *contract.Engine
	chain     *ledger.Chain
	pool      *ledger.Mempool
	authority *keys.KeyPair
	// verifier is the node's block-verification pipeline: a GOMAXPROCS
	// worker pool over a bounded signature cache shared by mempool
	// admission, chain append, consensus proposal validation and
	// checkpoint replay.
	verifier *ledger.Verifier

	factIndex  *factdb.Index
	graph      *supplychain.Graph
	classifier aidetect.TextClassifier
	mediaDet   *aidetect.MediaDetector
	// blobs holds article bodies off-chain, keyed by content id; the chain
	// carries only CIDs (plus legacy inline bodies).
	blobs *blobstore.Store
	// searchIdx is the full-text index over committed article bodies.
	searchIdx *search.Index
	// searchSub is the async indexer keeping searchIdx in sync with the
	// chain; queries may lag the head by its backlog (see FlushSearch).
	searchSub *search.Subscriber

	// bus is the event-sourced commit pipeline: every committed block is
	// published once, and all derived indexes (fact index, supply-chain
	// graph, expert miner, receipts, penalties) update as subscribers.
	bus *commitbus.Bus
	// receipts is the receipt-by-txid subscriber.
	receipts *receiptStore
	// experts is the incremental per-topic item index for expert mining.
	experts *supplychain.ExpertMiner
	// dir is the durable data directory ("" for in-memory nodes).
	dir string
	// ckptHeight is the height covered by the last written or restored
	// checkpoint (0 if none).
	ckptHeight uint64
	// authNonce tracks authority txs pending beyond the committed nonce.
	authNonce uint64
	// replicated marks a platform driven by external consensus; standalone
	// mining is disabled to prevent forking away from the agreed chain.
	replicated bool
	// onSubmit, when set, observes every transaction Submit accepts into
	// the mempool (cluster mode relays them to peer validators).
	onSubmit func(*ledger.Tx)
	// clock supplies block timestamps (fixed epoch by default for
	// reproducibility; override with SetClock).
	clock func() time.Time
	// admit is the node's admission controller (nil without
	// Config.Admission; every method is nil-safe and admits).
	admit *admission.Controller
	// tm holds the node's cached commit-path instrument handles (nil
	// without Config.Telemetry; all methods are nil-safe).
	tm platformMetrics
	// tracer records commit spans (nil without Config.Telemetry).
	tracer *telemetry.Tracer
}

// platformMetrics instruments the platform-level commit path.
type platformMetrics struct {
	commits   *telemetry.Counter
	txs       *telemetry.Counter
	commitSec *telemetry.Histogram
}

// New creates a platform node with all contracts registered.
func New(cfg Config) (*Platform, error) {
	if cfg.AuthoritySeed == "" {
		cfg.AuthoritySeed = "platform-authority"
	}
	if cfg.PromoteThreshold == 0 {
		cfg.PromoteThreshold = 0.9
	}
	if cfg.MaxTxsPerBlock == 0 {
		cfg.MaxTxsPerBlock = 512
	}
	if cfg.Weights == (ranking.Weights{}) {
		cfg.Weights = ranking.DefaultWeights()
	}
	if cfg.MempoolCapacity == 0 {
		cfg.MempoolCapacity = defaultMempoolCapacity(cfg.MaxTxsPerBlock)
	}
	p := &Platform{
		cfg:       cfg,
		engine:    contract.NewEngine(),
		chain:     ledger.NewMemChain(),
		authority: keys.FromSeed([]byte(cfg.AuthoritySeed)),
		factIndex: factdb.NewIndex(),
		mediaDet:  aidetect.NewMediaDetector(),
		bus:       commitbus.New(),
		receipts:  newReceiptStore(),
		experts:   supplychain.NewExpertMiner(),
		searchIdx: search.New(),
		clock:     func() time.Time { return time.Unix(1562500000, 0).UTC() },
	}
	p.verifier = newVerifier(cfg)
	p.chain.SetVerifier(p.verifier)
	admit, err := admission.NewController(cfg.Admission, cfg.Telemetry)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	p.admit = admit
	if cfg.BlobDir != "" {
		blobs, err := blobstore.Open(cfg.BlobDir, cfg.BlobChunkSize)
		if err != nil {
			return nil, fmt.Errorf("platform: open blob store: %w", err)
		}
		p.blobs = blobs
	} else {
		p.blobs = blobstore.NewStore(cfg.BlobChunkSize)
	}
	p.pool = ledger.NewMempool(p.chain, cfg.MempoolCapacity)
	if cfg.MaxTxPayloadBytes > 0 {
		p.pool.SetMaxPayloadBytes(cfg.MaxTxPayloadBytes)
	}
	// Wire telemetry before any traffic. A nil registry yields nil
	// instruments everywhere, so the uninstrumented cost is one branch.
	p.verifier.Instrument(cfg.Telemetry)
	p.pool.Instrument(cfg.Telemetry)
	p.blobs.Instrument(cfg.Telemetry)
	p.bus.Instrument(cfg.Telemetry)
	p.tracer = cfg.Telemetry.Tracer()
	p.tm = platformMetrics{
		commits:   cfg.Telemetry.Counter("trustnews_platform_commits_total", "Blocks committed by this node (standalone or replicated)."),
		txs:       cfg.Telemetry.Counter("trustnews_platform_txs_committed_total", "Transactions inside committed blocks."),
		commitSec: cfg.Telemetry.Histogram("trustnews_platform_commit_seconds", "Wall time to execute, append and index one block.", nil),
	}
	p.graph = supplychain.NewGraph(p.factIndex)
	p.searchSub = search.NewSubscriber(p.searchIdx, p.resolveBody)
	p.searchSub.Instrument(cfg.Telemetry)
	subs := []commitbus.Subscriber{
		&contractState{engine: p.engine},
		p.receipts,
		&factdb.IndexSubscriber{Index: p.factIndex},
		&supplychain.GraphSubscriber{Graph: p.graph, Resolve: p.resolveBody},
		p.experts,
		&penaltyForwarder{p: p},
		blobstore.NewsRefSubscriber(p.blobs),
		p.searchSub,
	}
	for _, s := range subs {
		if err := p.bus.Register(s); err != nil {
			return nil, err
		}
	}

	auth := p.authority.Address()
	contracts := []contract.Contract{
		&identity.Contract{Genesis: auth},
		&factdb.Contract{Genesis: auth, RankAuthority: auth, PromoteThreshold: cfg.PromoteThreshold},
		supplychain.Contract{},
		&ranking.Contract{Authority: auth},
		newsroom.Contract{},
		&MediaContract{},
		evidence.Contract{},
	}
	for _, c := range contracts {
		if err := p.engine.Register(c); err != nil {
			return nil, fmt.Errorf("platform: register %s: %w", c.Name(), err)
		}
	}
	return p, nil
}

// Authority returns the platform authority address (genesis for the
// identity registry, fact authority, ranking resolver).
func (p *Platform) Authority() keys.Address { return p.authority.Address() }

// Engine exposes the contract engine for read-only queries.
func (p *Platform) Engine() *contract.Engine { return p.engine }

// Chain exposes the underlying chain.
func (p *Platform) Chain() *ledger.Chain { return p.chain }

// Verifier exposes the node's block-verification pipeline (worker pool +
// signature cache).
func (p *Platform) Verifier() *ledger.Verifier { return p.verifier }

// Graph exposes the news supply-chain graph.
func (p *Platform) Graph() *supplychain.Graph { return p.graph }

// FactIndex exposes the factual-database similarity index.
func (p *Platform) FactIndex() *factdb.Index { return p.factIndex }

// Blobs exposes the off-chain article body store.
func (p *Platform) Blobs() *blobstore.Store { return p.blobs }

// SearchIndex exposes the full-text article index.
func (p *Platform) SearchIndex() *search.Index { return p.searchIdx }

// Search returns the top-k committed articles matching the query,
// BM25-ranked. Indexing is asynchronous: results may lag the chain head
// by the indexer backlog (SearchIndexerStats reports it; FlushSearch
// waits it out).
func (p *Platform) Search(q string, k int) []search.Result { return p.searchIdx.Query(q, k) }

// SearchPage runs a ranked, paginated query (the /v1/search path).
func (p *Platform) SearchPage(q string, ranker search.Ranker, offset, limit int) search.Page {
	return p.searchIdx.QueryPage(q, ranker, offset, limit)
}

// FlushSearch blocks until the async indexer has applied every
// committed document. Tests and read-your-writes callers use it;
// serving paths should not (the whole point is that they never wait).
func (p *Platform) FlushSearch() { p.searchSub.Flush() }

// SearchIndexerStats reports the async indexer's backlog and error
// accounting (the /v1/healthz indexer-lag field).
func (p *Platform) SearchIndexerStats() search.IndexerStats { return p.searchSub.Stats() }

// resolveBody fetches an off-chain article body by content id. It backs
// the graph and search subscribers' hydration and every read path that
// needs the text behind a CID-only item.
func (p *Platform) resolveBody(cid string) (string, error) {
	c, err := blobstore.ParseCID(cid)
	if err != nil {
		return "", err
	}
	return p.blobs.GetString(c)
}

// hydrateItem fills in an off-chain body so callers can treat Text as
// always present.
func (p *Platform) hydrateItem(it *supplychain.Item) error {
	if it.Text != "" || it.CID == "" {
		return nil
	}
	text, err := p.resolveBody(it.CID)
	if err != nil {
		return fmt.Errorf("platform: resolve body of %s: %w", it.ID, err)
	}
	it.Text = text
	return nil
}

// Item returns a committed news item with its body hydrated.
func (p *Platform) Item(id string) (supplychain.Item, error) {
	it, err := supplychain.GetItem(p.engine, p.authority.Address(), id)
	if err != nil {
		return supplychain.Item{}, err
	}
	if err := p.hydrateItem(&it); err != nil {
		return supplychain.Item{}, err
	}
	return it, nil
}

// SetClock overrides the block timestamp source.
func (p *Platform) SetClock(now func() time.Time) { p.clock = now }

// Bus exposes the commit-event bus (to register additional derived-index
// subscribers before the first commit).
func (p *Platform) Bus() *commitbus.Bus { return p.bus }

// Telemetry returns the node's metrics registry (nil when the node was
// built without Config.Telemetry).
func (p *Platform) Telemetry() *telemetry.Registry { return p.cfg.Telemetry }

// BusStats reports per-subscriber delivery/error/lag accounting.
func (p *Platform) BusStats() []commitbus.SubscriberStats { return p.bus.Stats() }

// Admission returns the node's admission controller (nil when the node
// was built without Config.Admission — every method on it still admits).
func (p *Platform) Admission() *admission.Controller { return p.admit }

// MempoolSize reports the number of pending transactions (the /v1/healthz
// mempool-depth field).
func (p *Platform) MempoolSize() int { return p.pool.Size() }

// ConsensusAttached reports whether the platform runs replicated under
// external consensus (AttachConsensus was called) rather than mining its
// own blocks.
func (p *Platform) ConsensusAttached() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicated
}

// ExpertMiner exposes the incremental per-topic item index.
func (p *Platform) ExpertMiner() *supplychain.ExpertMiner { return p.experts }

// CheckpointHeight returns the chain height covered by the last written
// or restored checkpoint (0 if the node never checkpointed).
func (p *Platform) CheckpointHeight() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ckptHeight
}

// TrainClassifier fits the AI text component on labelled statements.
func (p *Platform) TrainClassifier(c aidetect.TextClassifier, train []corpus.Statement) error {
	if err := c.Train(train); err != nil {
		return fmt.Errorf("platform: train classifier: %w", err)
	}
	p.mu.Lock()
	p.classifier = c
	p.mu.Unlock()
	return nil
}

// Submit verifies and enqueues a signed transaction. In cluster mode the
// accepted transaction is also handed to the relay hook (SetOnSubmit) so
// peer validators learn about it before their next proposal.
//
// With Config.Admission set, Submit first passes the mempool admission
// gate: concurrent signature verifications are bounded, a short queue
// absorbs bursts, and once queue delay indicates sustained overload the
// gate sheds with admission.ErrOverCapacity before any verification
// work is spent — the transaction was never admitted and its nonce is
// safe to reuse.
func (p *Platform) Submit(tx *ledger.Tx) error {
	if err := p.admit.AcquireMempool(); err != nil {
		return err
	}
	defer p.admit.ReleaseMempool()
	if err := p.pool.Add(tx); err != nil {
		return err
	}
	p.mu.Lock()
	relay := p.onSubmit
	p.mu.Unlock()
	if relay != nil {
		relay(tx)
	}
	return nil
}

// Commit mines one block from the mempool in standalone mode: executes
// the batch, appends the block, and indexes the emitted events. It
// returns the committed block and its receipts (nil block if the pool was
// empty).
func (p *Platform) Commit() (*ledger.Block, []contract.Receipt, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.replicated {
		return nil, nil, errors.New("platform: standalone commit disabled under consensus")
	}
	txs := p.pool.Batch(p.cfg.MaxTxsPerBlock)
	if len(txs) == 0 {
		return nil, nil, nil
	}
	var start time.Time
	if p.tm.commitSec != nil {
		start = time.Now()
	}
	sp := p.tracer.Start("platform.commit")
	blk := ledger.NewBlock(p.chain.Height(), p.chain.HeadID(), [32]byte{}, p.clock(), p.authority.Address(), txs)
	exec := sp.Child("engine.execute")
	recs := p.engine.ExecuteBlock(blk)
	exec.End()
	root, err := p.engine.StateRoot()
	if err != nil {
		sp.SetAttr("error", "state_root")
		sp.End()
		return nil, nil, fmt.Errorf("platform: state root: %w", err)
	}
	blk.Header.StateRoot = root
	if err := p.chain.Append(blk); err != nil {
		sp.SetAttr("error", "append")
		sp.End()
		return nil, nil, fmt.Errorf("platform: append block: %w", err)
	}
	p.pool.Remove(txs)
	pub := sp.Child("commitbus.publish")
	p.publishLocked(blk, recs)
	pub.End()
	p.tm.commits.Inc()
	p.tm.txs.Add(uint64(len(txs)))
	if p.tm.commitSec != nil {
		p.tm.commitSec.Observe(time.Since(start).Seconds())
	}
	sp.SetAttr("height", fmt.Sprintf("%d", blk.Header.Height))
	sp.SetAttr("txs", fmt.Sprintf("%d", len(txs)))
	sp.End()
	return blk, recs, nil
}

// CommitAll mines blocks until the mempool drains.
func (p *Platform) CommitAll() error {
	for {
		blk, _, err := p.Commit()
		if err != nil {
			return err
		}
		if blk == nil {
			return nil
		}
	}
}

// ApplyExternalBlock executes and indexes a block decided by external
// consensus (the ChainApp commit hook path). The chain append must have
// been performed by the caller's chain; this platform instance executes
// against its own engine to stay in sync.
func (p *Platform) ApplyExternalBlock(b *ledger.Block) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var start time.Time
	if p.tm.commitSec != nil {
		start = time.Now()
	}
	sp := p.tracer.Start("platform.applyExternalBlock")
	recs := p.engine.ExecuteBlock(b)
	p.publishLocked(b, recs)
	p.tm.commits.Inc()
	p.tm.txs.Add(uint64(len(b.Txs)))
	if p.tm.commitSec != nil {
		p.tm.commitSec.Observe(time.Since(start).Seconds())
	}
	sp.SetAttr("height", fmt.Sprintf("%d", b.Header.Height))
	sp.End()
	return nil
}

// publishLocked feeds one committed block into the commit bus, updating
// every derived index (fact index, supply-chain graph, expert miner,
// receipt store, penalty forwarding) through its subscriber. Caller
// holds p.mu. Subscriber failures are recorded in the bus accounting
// (visible via BusStats / the HTTP gateway) rather than failing the
// commit: the block is already durable, and a lagging index must not
// fork the node away from consensus.
func (p *Platform) publishLocked(b *ledger.Block, recs []contract.Receipt) {
	_ = p.bus.Publish(commitbus.CommitEvent{
		Height:   b.Header.Height,
		Block:    b,
		Receipts: recs,
	})
}

// Receipt returns the receipt for a committed transaction.
func (p *Platform) Receipt(id ledger.TxID) (contract.Receipt, bool) {
	return p.receipts.Get(id)
}

// ---------------------------------------------------------------------------
// Ranking pipeline.
// ---------------------------------------------------------------------------

// ItemRank is the full ranking output for one news item.
type ItemRank struct {
	ItemID string  `json:"itemId"`
	Score  float64 `json:"score"`
	// Factual is the binary verdict at 0.5.
	Factual bool `json:"factual"`
	// Components for transparency (the paper's WVU-style "breakdown that
	// explains the rating", §I).
	AIFakeProb float64                 `json:"aiFakeProb"`
	Trace      supplychain.TraceResult `json:"trace"`
	VoteCount  int                     `json:"voteCount"`
	Mechanism  ranking.Mechanism       `json:"mechanism"`
}

// RankItem scores a committed news item under the given mechanism.
func (p *Platform) RankItem(itemID string, mech ranking.Mechanism) (ItemRank, error) {
	it, err := p.Item(itemID)
	if err != nil {
		return ItemRank{}, err
	}
	sig := ranking.Signals{AIFakeProb: -1, TraceScore: -1}
	out := ItemRank{ItemID: itemID, Mechanism: mech, AIFakeProb: -1}

	p.mu.Lock()
	cls := p.classifier
	p.mu.Unlock()
	if cls != nil {
		if prob, err := cls.Score(it.Text); err == nil {
			sig.AIFakeProb = prob
			out.AIFakeProb = prob
		}
	}
	if tr, err := p.graph.Trace(itemID); err == nil {
		sig.TraceScore = tr.Score
		sig.TraceRooted = tr.Rooted
		out.Trace = tr
	}
	votes, err := ranking.Votes(p.engine, p.authority.Address(), itemID)
	if err == nil {
		sig.Votes = votes
		out.VoteCount = len(votes)
	}
	agg := ranking.Aggregator{Mechanism: mech, Weights: p.cfg.Weights}
	score, err := agg.Score(sig)
	if err != nil {
		return ItemRank{}, fmt.Errorf("platform: rank %s: %w", itemID, err)
	}
	out.Score = score
	out.Factual = ranking.Verdict(score)
	return out, nil
}

// ResolveByRanking ranks an item with the combined mechanism, resolves the
// staked votes accordingly, and — when the item scores above the
// promotion threshold — promotes it into the factual database (§VI: "if
// the news is verified to be factual, then it can be added into the
// factual database"). The resolution txs are committed immediately.
func (p *Platform) ResolveByRanking(itemID string) (ItemRank, error) {
	rank, err := p.RankItem(itemID, ranking.MechanismCombined)
	if err != nil {
		return ItemRank{}, err
	}
	payload, err := ranking.ResolvePayload(itemID, rank.Factual)
	if err != nil {
		return ItemRank{}, err
	}
	if err := p.authoritySubmit("rank.resolve", payload); err != nil {
		return ItemRank{}, err
	}
	// Creator incentive (Fig. 2): verified factual content earns its
	// creator a token reward, funding the "encourage and reward factual
	// news sources" loop.
	if rank.Factual && p.cfg.CreatorReward > 0 {
		if it, err := supplychain.GetItem(p.engine, p.authority.Address(), itemID); err == nil {
			if addr, err := keys.ParseAddress(it.Creator); err == nil {
				if payload, err := ranking.MintPayload(addr, p.cfg.CreatorReward); err == nil {
					if err := p.authoritySubmit("rank.mint", payload); err != nil {
						return ItemRank{}, err
					}
				}
			}
		}
	}

	// Promotion gate (§VI): an item enters the factual database when the
	// verdict is factual AND either its trace already certifies it (a
	// near-verbatim descendant of a fact) or the reputation-weighted crowd
	// consensus clears the promotion threshold — the crowd-sourced
	// verification path for genuinely new reporting.
	votes, _ := ranking.Votes(p.engine, p.authority.Address(), itemID)
	crowd, hasCrowd := ranking.WeightedCrowdScore(votes)
	certified := rank.Trace.Rooted && rank.Trace.Score >= p.cfg.PromoteThreshold
	if rank.Factual && (certified || (hasCrowd && crowd >= p.cfg.PromoteThreshold)) {
		it, err := p.Item(itemID)
		if err == nil && !p.factIndex.Contains(it.Text) {
			// The stored certification score is whichever signal cleared
			// the gate.
			certScore := crowd
			if certified && rank.Trace.Score > certScore {
				certScore = rank.Trace.Score
			}
			pp, err := factdb.PromotePayload(itemID, it.Topic, it.Text, certScore)
			if err == nil {
				// A duplicate promotion (same normalized text from another
				// item) fails in-contract; that is fine.
				_ = p.authoritySubmit("factdb.promote", pp)
			}
		}
	}
	if err := p.CommitAll(); err != nil {
		return ItemRank{}, err
	}
	return rank, nil
}

// authoritySubmit signs a tx as the platform authority and enqueues it,
// tracking pending nonces so multiple authority txs can share one block.
func (p *Platform) authoritySubmit(kind string, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.authoritySubmitLocked(kind, payload)
}

// authoritySubmitLocked is authoritySubmit with p.mu already held.
func (p *Platform) authoritySubmitLocked(kind string, payload []byte) error {
	committed := p.chain.NextNonce(p.authority.Address().String())
	if committed > p.authNonce {
		p.authNonce = committed
	}
	tx, err := ledger.NewTx(p.authority, p.authNonce, kind, payload)
	if err != nil {
		return err
	}
	if err := p.pool.Add(tx); err != nil {
		return err
	}
	p.authNonce++
	return nil
}

// SubmitAuthority signs a transaction as the platform authority and
// commits immediately. Experiments use it to resolve items against a
// ground-truth oracle.
func (p *Platform) SubmitAuthority(kind string, payload []byte) error {
	if err := p.authoritySubmit(kind, payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// MintTo grants platform tokens (authority-signed) and commits.
func (p *Platform) MintTo(addr keys.Address, amount uint64) error {
	payload, err := ranking.MintPayload(addr, amount)
	if err != nil {
		return err
	}
	if err := p.authoritySubmit("rank.mint", payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// VerifyAccount genesis-verifies a registered account and commits.
func (p *Platform) VerifyAccount(addr keys.Address) error {
	payload, err := identity.ActPayload(addr)
	if err != nil {
		return err
	}
	if err := p.authoritySubmit("identity.verify", payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// SeedFact adds an official record to the factual database and commits.
func (p *Platform) SeedFact(id string, topic corpus.Topic, text string) error {
	payload, err := factdb.SeedPayload(id, topic, text)
	if err != nil {
		return err
	}
	if err := p.authoritySubmit("factdb.seed", payload); err != nil {
		return err
	}
	return p.CommitAll()
}

// Experts mines the ledger for domain-topic experts (§VI, experiment
// E8). The expert-miner subscriber narrows the scan to the topic's
// committed items, so the cost is proportional to the topic, not the
// whole ledger.
func (p *Platform) Experts(topic corpus.Topic, k int) []supplychain.ExpertScore {
	ids := p.experts.TopicItems(topic)
	traces := make(map[string]supplychain.TraceResult, len(ids))
	for _, id := range ids {
		if tr, err := p.graph.Trace(id); err == nil {
			traces[id] = tr
		}
	}
	return p.graph.Experts(topic, traces, k)
}

// ---------------------------------------------------------------------------
// Actor: a convenience client holding a key and tracking nonces.
// ---------------------------------------------------------------------------

// Actor is a platform participant bound to one key pair.
type Actor struct {
	kp *keys.KeyPair
	p  *Platform
	mu sync.Mutex
	n  uint64
}

// NewActor derives an actor from a seed name.
func (p *Platform) NewActor(seed string) *Actor {
	return &Actor{kp: keys.FromSeed([]byte(seed)), p: p}
}

// Address returns the actor's ledger address.
func (a *Actor) Address() keys.Address { return a.kp.Address() }

// Key exposes the actor's key pair (for consensus wiring).
func (a *Actor) Key() *keys.KeyPair { return a.kp }

// Send signs, submits and returns the tx (not yet committed).
func (a *Actor) Send(kind string, payload []byte) (*ledger.Tx, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if next := a.p.pool.NextNonce(a.kp.Address().String()); next > a.n {
		a.n = next
	}
	tx, err := ledger.NewTx(a.kp, a.n, kind, payload)
	if err != nil {
		return nil, err
	}
	if err := a.p.Submit(tx); err != nil {
		return nil, err
	}
	a.n++
	return tx, nil
}

// MustExec sends a tx, commits, and fails if the receipt is not OK.
func (a *Actor) MustExec(kind string, payload []byte) (contract.Receipt, error) {
	tx, err := a.Send(kind, payload)
	if err != nil {
		return contract.Receipt{}, err
	}
	if err := a.p.CommitAll(); err != nil {
		return contract.Receipt{}, err
	}
	rec, ok := a.p.Receipt(tx.ID())
	if !ok {
		return contract.Receipt{}, fmt.Errorf("%w: no receipt for %s", ErrTxFailed, tx.ID().Short())
	}
	if !rec.OK {
		return rec, fmt.Errorf("%w: %s: %s", ErrTxFailed, kind, rec.Err)
	}
	return rec, nil
}

// Register registers the actor's identity with a role.
func (a *Actor) Register(name string, role identity.Role) error {
	payload, err := identity.RegisterPayload(name, role)
	if err != nil {
		return err
	}
	_, err = a.MustExec("identity.register", payload)
	return err
}

// PublishNews publishes a news item (optionally derived from parents).
// With Config.OffChainBodies the body is written to the blob store and
// only its content id and size enter the transaction payload; the commit
// pipeline's subscribers hydrate the body wherever the text is needed.
func (a *Actor) PublishNews(id string, topic corpus.Topic, text string, parents []string, op corpus.Op) error {
	var payload []byte
	var err error
	if a.p.cfg.OffChainBodies && text != "" {
		cid, perr := a.p.blobs.PutString(text)
		if perr != nil {
			return fmt.Errorf("platform: store body of %s: %w", id, perr)
		}
		payload, err = supplychain.PublishRefPayload(id, topic, string(cid), len(text), parents, op)
	} else {
		payload, err = supplychain.PublishPayload(id, topic, text, parents, op)
	}
	if err != nil {
		return err
	}
	_, err = a.MustExec("news.publish", payload)
	return err
}

// Relay republishes a committed item verbatim under a new id.
func (a *Actor) Relay(newID, parentID string) error {
	parent, err := a.p.Item(parentID)
	if err != nil {
		return err
	}
	return a.PublishNews(newID, parent.Topic, parent.Text, []string{parentID}, corpus.OpVerbatim)
}

// Vote stakes tokens on an item's verdict.
func (a *Actor) Vote(itemID string, factual bool, stake uint64) error {
	payload, err := ranking.VotePayload(itemID, factual, stake)
	if err != nil {
		return err
	}
	_, err = a.MustExec("rank.vote", payload)
	return err
}

// Balance returns the actor's token balance.
func (a *Actor) Balance() (uint64, error) {
	return ranking.Balance(a.p.engine, a.kp.Address(), a.kp.Address())
}

// Reputation returns the actor's ranking reputation.
func (a *Actor) Reputation() (float64, error) {
	return ranking.Reputation(a.p.engine, a.kp.Address(), a.kp.Address())
}
