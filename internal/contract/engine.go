// Package contract implements the smart-contract engine that governs the
// trusting-news platform: chaincode-style contracts written in Go execute
// deterministically against a key-value state with gas metering, and emit
// events consumed by the supply-chain indexer.
//
// The paper leans on smart contracts throughout §V ("managed by various
// smart contracts"). Blocks execute serially, one transaction at a time
// in block order: on every benchmark workload a block carries one to a
// few transactions and execution is a fraction of a percent of commit
// time, so a parallel scheduler has nothing to fan out (EXPERIMENTS.md,
// "Block execution: one serial executor").
package contract

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/merkle"
	"repro/internal/store"
)

// Errors returned by this package.
var (
	// ErrUnknownContract indicates a tx kind routed to no contract.
	ErrUnknownContract = errors.New("contract: unknown contract")
	// ErrUnknownMethod indicates a method the contract does not export.
	ErrUnknownMethod = errors.New("contract: unknown method")
	// ErrOutOfGas indicates the per-transaction gas budget was exhausted.
	ErrOutOfGas = errors.New("contract: out of gas")
	// ErrBadKind indicates a tx kind that is not "contract.method".
	ErrBadKind = errors.New("contract: malformed tx kind")
	// ErrDuplicateContract indicates a second registration of a name.
	ErrDuplicateContract = errors.New("contract: duplicate contract")
)

// Gas costs per state operation.
const (
	GasGet    = 10
	GasPut    = 25
	GasDelete = 15
	GasKeys   = 50
	GasEmit   = 5
	// GasPerByte prices payload bytes written to state.
	GasPerByte = 1
	// DefaultGasLimit is the per-transaction budget.
	DefaultGasLimit = 1_000_000
)

// Event is emitted by contracts during execution; the supply-chain graph
// and the ranking engine index the ledger through these.
type Event struct {
	Contract string            `json:"contract"`
	Type     string            `json:"type"`
	Attrs    map[string]string `json:"attrs"`
}

// Receipt records the outcome of executing one transaction.
type Receipt struct {
	TxID    ledger.TxID `json:"txId"`
	OK      bool        `json:"ok"`
	Result  []byte      `json:"result,omitempty"`
	Err     string      `json:"err,omitempty"`
	GasUsed uint64      `json:"gasUsed"`
	Events  []Event     `json:"events,omitempty"`
}

// Contract is the chaincode interface. Implementations must be
// deterministic: same state + same tx => same writes, result and events.
type Contract interface {
	// Name is the routing prefix in tx kinds ("name.method").
	Name() string
	// Execute runs a method. State access goes through ctx.
	Execute(ctx *Context, method string, args []byte) ([]byte, error)
}

// Engine routes transactions to contracts and maintains the state store.
type Engine struct {
	mu        sync.RWMutex
	contracts map[string]Contract
	state     *store.MemKV
	gasLimit  uint64
}

// NewEngine creates an engine over a fresh in-memory state.
func NewEngine() *Engine {
	return &Engine{
		contracts: make(map[string]Contract),
		state:     store.NewMemKV(),
		gasLimit:  DefaultGasLimit,
	}
}

// SetGasLimit overrides the per-tx budget (0 restores the default).
func (e *Engine) SetGasLimit(limit uint64) {
	if limit == 0 {
		limit = DefaultGasLimit
	}
	e.gasLimit = limit
}

// Register adds a contract.
func (e *Engine) Register(c Contract) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.contracts[c.Name()]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateContract, c.Name())
	}
	e.contracts[c.Name()] = c
	return nil
}

// State exposes read-only access to committed state for queries. Callers
// must not mutate through it outside Execute.
func (e *Engine) State() store.KV { return e.state }

// StateSnapshot returns a deep copy of the committed contract state, the
// engine's contribution to a durable-node checkpoint.
func (e *Engine) StateSnapshot() (map[string][]byte, error) {
	return e.state.Snapshot()
}

// RestoreState replaces the committed contract state with a snapshot
// (checkpoint restore; the caller re-verifies the state root afterward).
func (e *Engine) RestoreState(snap map[string][]byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.state.Restore(snap)
}

// StateRoot computes a Merkle root over the committed state (sorted
// key/value leaves). It is the block header's StateRoot.
func (e *Engine) StateRoot() (merkle.Hash, error) {
	snap, err := e.state.Snapshot()
	if err != nil {
		return merkle.Hash{}, fmt.Errorf("contract: snapshot: %w", err)
	}
	if len(snap) == 0 {
		return merkle.Hash{}, nil
	}
	keysSorted := make([]string, 0, len(snap))
	for k := range snap {
		keysSorted = append(keysSorted, k)
	}
	sort.Strings(keysSorted)
	leaves := make([][]byte, 0, len(keysSorted))
	for _, k := range keysSorted {
		leaf := make([]byte, 0, len(k)+1+len(snap[k]))
		leaf = append(leaf, k...)
		leaf = append(leaf, 0)
		leaf = append(leaf, snap[k]...)
		leaves = append(leaves, leaf)
	}
	return merkle.Root(leaves), nil
}

// splitKind parses "contract.method".
func splitKind(kind string) (string, string, error) {
	i := strings.IndexByte(kind, '.')
	if i <= 0 || i == len(kind)-1 {
		return "", "", fmt.Errorf("%w: %q", ErrBadKind, kind)
	}
	return kind[:i], kind[i+1:], nil
}

// ExecuteTx runs one transaction against committed state, applying its
// writes on success. Failed transactions consume gas but write nothing.
func (e *Engine) ExecuteTx(tx *ledger.Tx, height uint64) Receipt {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.executeLocked(tx, height)
}

// ExecuteBlock runs every transaction in block order, returning one
// receipt per tx. Each transaction sees the writes of the ones before it.
func (e *Engine) ExecuteBlock(b *ledger.Block) []Receipt {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Receipt, 0, len(b.Txs))
	for _, tx := range b.Txs {
		out = append(out, e.executeLocked(tx, b.Header.Height))
	}
	return out
}

// executeLocked runs tx through a write overlay on the committed state
// and applies the overlay only if the transaction succeeds. Caller holds
// e.mu.
func (e *Engine) executeLocked(tx *ledger.Tx, height uint64) Receipt {
	rec := Receipt{TxID: tx.ID()}
	name, method, err := splitKind(tx.Kind)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	c, ok := e.contracts[name]
	if !ok {
		rec.Err = fmt.Sprintf("%v: %s", ErrUnknownContract, name)
		return rec
	}
	ov := newOverlay(e.state)
	ctx := &Context{
		Sender:   tx.Sender,
		TxID:     tx.ID(),
		Height:   height,
		gas:      &gasMeter{limit: e.gasLimit},
		overlay:  ov,
		contract: name,
	}
	result, err := runSafely(c, ctx, method, tx.Payload)
	rec.GasUsed = ctx.gas.used
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	applyWrites(e.state, ov.writes)
	rec.OK = true
	rec.Result = result
	rec.Events = ctx.events
	return rec
}

// runSafely converts contract panics into errors so one bad contract
// cannot take down the node.
func runSafely(c Contract, ctx *Context, method string, args []byte) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("contract: %s panicked: %v", c.Name(), r)
		}
	}()
	return c.Execute(ctx, method, args)
}

func applyWrites(kv *store.MemKV, ws map[string]writeOp) {
	// Sorted application keeps any downstream iteration deterministic.
	ks := make([]string, 0, len(ws))
	for k := range ws {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	for _, k := range ks {
		op := ws[k]
		if op.deleted {
			// MemKV.Delete cannot fail.
			_ = kv.Delete(k)
			continue
		}
		_ = kv.Put(k, op.value)
	}
}

// Query runs a read-only method against committed state with no writes
// applied (any writes are discarded) and a fresh gas budget.
func (e *Engine) Query(sender keys.Address, kind string, args []byte) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	name, method, err := splitKind(kind)
	if err != nil {
		return nil, err
	}
	c, ok := e.contracts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownContract, name)
	}
	ctx := &Context{
		Sender:   sender,
		Height:   0,
		gas:      &gasMeter{limit: e.gasLimit},
		overlay:  newOverlay(e.state),
		contract: name,
	}
	return runSafely(c, ctx, method, args)
}
