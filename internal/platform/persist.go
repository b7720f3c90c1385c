package platform

import (
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"strconv"

	"repro/internal/commitbus"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Durable deployment: a platform whose chain is backed by the
// write-ahead-logged file store. Contract state and the derived indexes
// (factual database, supply-chain graph, expert miner, receipts) are a
// pure function of the block sequence, delivered through the commit bus.
// Reopen therefore has two paths:
//
//   - checkpoint restore: load the latest CRC-guarded checkpoint, hand
//     each commit-bus subscriber its snapshot blob, verify the restored
//     contract state against the block header's state root, and replay
//     only the WAL tail above the checkpoint height — O(tail) instead of
//     O(chain length);
//   - full replay: execute every block through the contract engine (the
//     original behaviour), used when no checkpoint exists or the
//     checkpoint fails any verification step, then check the final
//     contract state against the head header's state root. Replay also
//     re-verifies the chain's integrity (a tampered block file fails CRC
//     or re-validation), so the checkpoint never weakens tamper evidence.

// Durable file names inside the data directory.
const (
	chainLogName   = "chain.log"
	checkpointName = "checkpoint.ckpt"
)

// ErrNotDurable indicates a checkpoint operation on an in-memory node.
var ErrNotDurable = errors.New("platform: node has no data directory")

// Open creates or reopens a durable platform at dir. The chain log lives
// in dir/chain.log and checkpoints in dir/checkpoint.ckpt. The returned
// close function releases the log file.
//
// When a valid checkpoint is present the chain itself reopens from the
// checkpointed index snapshot — only the WAL tail above the checkpoint
// height is decoded and re-validated — and the derived indexes restore
// from their snapshot blobs. Any verification failure along that path
// discards the partial state and falls back to the original full-replay
// open, so a bad checkpoint can delay a restart but never corrupt one.
func Open(dir string, cfg Config) (*Platform, func() error, error) {
	// Off-chain article bodies persist beside the chain: the blob store
	// loads before any replay or checkpoint restore, so hydration during
	// either path reads the same bytes the previous run committed.
	if cfg.BlobDir == "" {
		cfg.BlobDir = filepath.Join(dir, "blobs")
	}
	wal, err := store.OpenFileLog(filepath.Join(dir, chainLogName))
	if err != nil {
		return nil, nil, err
	}
	restores := cfg.Telemetry.CounterVec("trustnews_checkpoint_restore_total",
		"Reopens with a checkpoint present, by outcome: restored from it, or fell back to full replay.", "result")
	cp, err := store.ReadCheckpoint(filepath.Join(dir, checkpointName))
	if err == nil {
		var p *Platform
		if p, err = openFromCheckpoint(dir, cfg, wal, cp); err == nil {
			restores.With("checkpoint").Inc()
			return p, wal.Close, nil
		}
	}
	if !errors.Is(err, store.ErrNotFound) {
		restores.With("fallback").Inc()
		log.Printf("platform: %s: checkpoint not used, replaying the whole chain: %v", dir, err)
	}

	// Full replay: decode, validate and re-execute every block, with the
	// replay's body validation fanned across the verification pipeline.
	chain, err := ledger.NewChainVerified(wal, newVerifier(cfg))
	if err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("platform: reopen chain: %w", err)
	}
	p, err := newDurable(dir, cfg, chain)
	if err != nil {
		wal.Close()
		return nil, nil, err
	}
	if err := p.replayFrom(0); err != nil {
		wal.Close()
		return nil, nil, fmt.Errorf("platform: replay: %w", err)
	}
	if err := p.checkHeadRoot(); err != nil {
		wal.Close()
		return nil, nil, err
	}
	return p, wal.Close, nil
}

// checkHeadRoot compares the replayed contract state with the state root
// committed in the head block's header. Consensus-proposed blocks carry
// a zero root and are not checked.
func (p *Platform) checkHeadRoot() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	head := p.chain.Head()
	if head == nil || head.Header.StateRoot == (merkle.Hash{}) {
		return nil
	}
	root, err := p.engine.StateRoot()
	if err != nil {
		return fmt.Errorf("platform: replayed state root: %w", err)
	}
	if root != head.Header.StateRoot {
		return fmt.Errorf("platform: replayed state root %s does not match block header %s at height %d",
			root.String(), head.Header.StateRoot.String(), head.Header.Height)
	}
	return nil
}

// openFromCheckpoint attempts the fast reopen path: rebuild the chain
// from the checkpoint's index snapshot (validating only the WAL tail),
// restore every subscriber blob, verify the restored contract state
// against both the checkpoint hash and the committed block header, then
// replay just the tail. Any error means the caller must fall back to the
// full-replay path; nothing here mutates the log. The attempt is traced
// as one platform.restore span.
func openFromCheckpoint(dir string, cfg Config, wal *store.FileLog, cp *store.Checkpoint) (p *Platform, err error) {
	sp := cfg.Telemetry.Tracer().Start("platform.restore")
	sp.SetAttr("height", strconv.FormatUint(cp.Height, 10))
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}()
	chainSp := sp.Child("ledger.open_from_snapshot")
	chain, err := ledger.NewChainFromSnapshotVerified(wal, cp.Chain, newVerifier(cfg))
	chainSp.End()
	if err != nil {
		return nil, err
	}
	if p, err = newDurable(dir, cfg, chain); err != nil {
		return nil, err
	}
	if err := p.restoreCheckpoint(cp, sp); err != nil {
		return nil, err
	}
	tail := sp.Child("platform.replay_tail")
	tail.SetAttr("blocks", strconv.FormatUint(chain.Height()-cp.Height, 10))
	err = p.replayFrom(cp.Height)
	tail.End()
	if err != nil {
		return nil, fmt.Errorf("platform: replay tail: %w", err)
	}
	return p, nil
}

// newDurable builds a fresh platform bound to the durable chain.
func newDurable(dir string, cfg Config, chain *ledger.Chain) (*Platform, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.chain = chain
	// Adopt the durable chain's pipeline (it already verified the replay
	// and its cache is warm with the tail's signatures), discarding the
	// one New built for the throwaway empty chain.
	p.verifier = chain.Verifier()
	p.pool = ledger.NewMempool(chain, p.cfg.MempoolCapacity)
	// The pool New built (and instrumented) was bound to the empty chain;
	// re-instrument its replacement so durable nodes keep live mempool
	// metrics. Registering the same families again is idempotent.
	p.verifier.Instrument(cfg.Telemetry)
	p.pool.Instrument(cfg.Telemetry)
	p.dir = dir
	p.mu.Unlock()
	return p, nil
}

// restoreCheckpoint verifies a checkpoint against the reopened chain and
// hands every commit-bus subscriber its snapshot. The subscribers restore
// concurrently, and the contract-state root is checked as soon as the
// contract state is back, while the slower indexes are still decoding.
// Each subscriber's restore and the root check get a child span of sp.
// Any failure returns an error with the platform in an undefined derived
// state — the caller must discard it and fall back to full replay.
func (p *Platform) restoreCheckpoint(cp *store.Checkpoint, sp *telemetry.Span) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cp.Height > p.chain.Height() {
		return fmt.Errorf("platform: checkpoint height %d beyond chain height %d", cp.Height, p.chain.Height())
	}
	var wantRoot string
	if cp.Height > 0 {
		blk, err := p.chain.BlockAt(cp.Height - 1)
		if err != nil {
			return fmt.Errorf("platform: checkpoint head: %w", err)
		}
		if got := blk.ID().String(); got != cp.HeadID {
			return fmt.Errorf("platform: checkpoint head id %s does not match chain %s", cp.HeadID, got)
		}
		// Standalone commits embed the post-execution state root in the
		// header; consensus-proposed blocks leave it zero (the proposer
		// cannot know the post-state before the block is decided). The
		// header cross-check applies only when a commitment is present.
		if blk.Header.StateRoot != (merkle.Hash{}) {
			wantRoot = blk.Header.StateRoot.String()
		}
	}
	// The restored contract state must hash to both the checkpoint's
	// recorded root and the root committed in the block header at the
	// checkpoint height. Full replay checks the head header's root the
	// same way; the WAL tail replayed above the checkpoint is not
	// re-checked, which would cost one more O(state) root per restart.
	checkRoot := func() error {
		rs := sp.Child("platform.state_root_check")
		defer rs.End()
		root, err := p.engine.StateRoot()
		if err != nil {
			return fmt.Errorf("platform: restored state root: %w", err)
		}
		if root.String() != cp.StateHash {
			return fmt.Errorf("platform: restored state root %s does not match checkpoint %s", root.String(), cp.StateHash)
		}
		if wantRoot != "" && root.String() != wantRoot {
			return fmt.Errorf("platform: restored state root %s does not match block header %s", root.String(), wantRoot)
		}
		return nil
	}
	err := p.bus.Restore(cp.Subscribers, cp.Height, commitbus.RestoreOptions{
		Span: sp,
		Restored: func(name string) error {
			if name != stateSubscriberName {
				return nil
			}
			return checkRoot()
		},
	})
	if err != nil {
		return err
	}
	p.ckptHeight = cp.Height
	return nil
}

// replayFrom re-executes committed blocks from the given height upward,
// feeding each through the commit bus exactly like a live commit.
func (p *Platform) replayFrom(from uint64) error {
	return p.chain.Walk(from, func(b *ledger.Block) bool {
		p.mu.Lock()
		recs := p.engine.ExecuteBlock(b)
		p.publishLocked(b, recs)
		p.mu.Unlock()
		return true
	})
}

// WriteCheckpoint snapshots the node's derived state — contract state,
// receipts, fact index, supply-chain graph, expert miner — into
// dir/checkpoint.ckpt, atomically replacing any previous checkpoint.
// Subsequent Opens restore it and replay only the newer WAL tail.
func (p *Platform) WriteCheckpoint() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dir == "" {
		return ErrNotDurable
	}
	height := p.chain.Height()
	var headID string
	if height > 0 {
		headID = p.chain.HeadID().String()
	}
	root, err := p.engine.StateRoot()
	if err != nil {
		return fmt.Errorf("platform: checkpoint state root: %w", err)
	}
	blobs, err := p.bus.Snapshot()
	if err != nil {
		return err
	}
	chainSnap, err := p.chain.SnapshotState()
	if err != nil {
		return err
	}
	cp := &store.Checkpoint{
		Height:      height,
		HeadID:      headID,
		StateHash:   root.String(),
		Chain:       chainSnap,
		Subscribers: blobs,
	}
	if err := store.WriteCheckpoint(filepath.Join(p.dir, checkpointName), cp); err != nil {
		return err
	}
	p.ckptHeight = height
	return nil
}
