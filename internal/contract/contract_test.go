package contract

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/store"
)

// counterContract is a minimal test contract: "add" increments a named
// counter by the first payload byte, "get" returns its value, "boom"
// panics, "burn" loops until out of gas.
type counterContract struct{}

func (counterContract) Name() string { return "counter" }

func (counterContract) Execute(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "add":
		name, delta, err := parseAdd(args)
		if err != nil {
			return nil, err
		}
		cur := uint64(0)
		if raw, err := ctx.Get(name); err == nil {
			cur = binary.BigEndian.Uint64(raw)
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], cur+delta)
		if err := ctx.Put(name, buf[:]); err != nil {
			return nil, err
		}
		if err := ctx.Emit("added", map[string]string{"name": name}); err != nil {
			return nil, err
		}
		return buf[:], nil
	case "get":
		return ctx.Get(string(args))
	case "sum":
		// Reads every counter: a whole-namespace read for conflict tests.
		names, err := ctx.Keys("")
		if err != nil {
			return nil, err
		}
		var sum uint64
		for _, n := range names {
			raw, err := ctx.Get(n)
			if err != nil {
				return nil, err
			}
			sum += binary.BigEndian.Uint64(raw)
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], sum)
		return buf[:], nil
	case "boom":
		panic("intentional test panic")
	case "burn":
		for {
			if err := ctx.Put("x", make([]byte, 1024)); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnknownMethod, method)
	}
}

func parseAdd(args []byte) (string, uint64, error) {
	parts := strings.SplitN(string(args), ":", 2)
	if len(parts) != 2 {
		return "", 0, errors.New("counter: want name:delta")
	}
	d, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return "", 0, err
	}
	return parts[0], d, nil
}

// spyContract records that it ran, to test namespacing.
type spyContract struct{}

func (spyContract) Name() string { return "spy" }
func (spyContract) Execute(ctx *Context, method string, args []byte) ([]byte, error) {
	switch method {
	case "peek":
		return ctx.Get(string(args))
	case "put":
		return nil, ctx.Put("k", []byte("spy-value"))
	default:
		return nil, ErrUnknownMethod
	}
}

func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	if err := e.Register(counterContract{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(spyContract{}); err != nil {
		t.Fatal(err)
	}
	return e
}

func execTx(t testing.TB, e *Engine, kp *keys.KeyPair, nonce uint64, kind, payload string) Receipt {
	t.Helper()
	tx, err := ledger.NewTx(kp, nonce, kind, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return e.ExecuteTx(tx, 1)
}

func TestExecuteRoutesAndWrites(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("alice"))
	rec := execTx(t, e, kp, 0, "counter.add", "hits:5")
	if !rec.OK {
		t.Fatalf("receipt: %+v", rec)
	}
	if binary.BigEndian.Uint64(rec.Result) != 5 {
		t.Fatalf("result=%v", rec.Result)
	}
	rec2 := execTx(t, e, kp, 1, "counter.add", "hits:3")
	if binary.BigEndian.Uint64(rec2.Result) != 8 {
		t.Fatalf("cumulative result=%v", rec2.Result)
	}
}

func TestUnknownContractAndMethod(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	rec := execTx(t, e, kp, 0, "ghost.do", "")
	if rec.OK || !strings.Contains(rec.Err, "unknown contract") {
		t.Fatalf("receipt: %+v", rec)
	}
	rec2 := execTx(t, e, kp, 1, "counter.nosuch", "")
	if rec2.OK || !strings.Contains(rec2.Err, "unknown method") {
		t.Fatalf("receipt: %+v", rec2)
	}
}

func TestMalformedKind(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	for _, kind := range []string{"nomethod", ".lead", "trail."} {
		rec := execTx(t, e, kp, 0, kind, "")
		if rec.OK {
			t.Fatalf("kind %q accepted", kind)
		}
	}
}

func TestFailedTxWritesNothing(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	execTx(t, e, kp, 0, "counter.add", "hits:5")
	// "boom" panics after nothing; "burn" writes then runs out of gas.
	rec := execTx(t, e, kp, 1, "counter.burn", "")
	if rec.OK {
		t.Fatal("burn must fail")
	}
	if !strings.Contains(rec.Err, "out of gas") {
		t.Fatalf("err=%s", rec.Err)
	}
	// The partial writes from burn must not be visible.
	out, err := e.Query(kp.Address(), "counter.get", []byte("x"))
	if err == nil {
		t.Fatalf("burn's writes leaked: %v", out)
	}
	// And the original counter survives.
	got, err := e.Query(kp.Address(), "counter.get", []byte("hits"))
	if err != nil || binary.BigEndian.Uint64(got) != 5 {
		t.Fatalf("counter corrupted: %v %v", got, err)
	}
}

func TestPanicIsolated(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	rec := execTx(t, e, kp, 0, "counter.boom", "")
	if rec.OK || !strings.Contains(rec.Err, "panicked") {
		t.Fatalf("receipt: %+v", rec)
	}
	// Engine still functions.
	rec2 := execTx(t, e, kp, 1, "counter.add", "ok:1")
	if !rec2.OK {
		t.Fatalf("engine broken after panic: %+v", rec2)
	}
}

func TestGasAccounting(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	rec := execTx(t, e, kp, 0, "counter.add", "hits:1")
	// add = Get(10) + Put(25+8) + Emit(5) = 48.
	if rec.GasUsed != 48 {
		t.Fatalf("gas=%d want 48", rec.GasUsed)
	}
}

func TestGasLimitEnforced(t *testing.T) {
	e := newTestEngine(t)
	e.SetGasLimit(30)
	kp := keys.FromSeed([]byte("a"))
	rec := execTx(t, e, kp, 0, "counter.add", "hits:1")
	if rec.OK || !strings.Contains(rec.Err, "out of gas") {
		t.Fatalf("receipt: %+v", rec)
	}
	if rec.GasUsed != 30 {
		t.Fatalf("gas=%d want capped at 30", rec.GasUsed)
	}
}

func TestNamespaceIsolation(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	execTx(t, e, kp, 0, "counter.add", "hits:9")
	// spy.peek("hits") must not see counter's key.
	if _, err := e.Query(kp.Address(), "spy.peek", []byte("hits")); err == nil {
		t.Fatal("cross-contract read must fail")
	}
}

func TestEventsRecorded(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	rec := execTx(t, e, kp, 0, "counter.add", "hits:2")
	if len(rec.Events) != 1 || rec.Events[0].Type != "added" || rec.Events[0].Attrs["name"] != "hits" {
		t.Fatalf("events=%+v", rec.Events)
	}
	if rec.Events[0].Contract != "counter" {
		t.Fatalf("event contract=%s", rec.Events[0].Contract)
	}
}

func TestQueryDiscardsWrites(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	if _, err := e.Query(kp.Address(), "spy.put", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(kp.Address(), "spy.peek", []byte("k")); err == nil {
		t.Fatal("query writes must not persist")
	}
}

func TestDuplicateRegistration(t *testing.T) {
	e := NewEngine()
	if err := e.Register(counterContract{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(counterContract{}); !errors.Is(err, ErrDuplicateContract) {
		t.Fatalf("want ErrDuplicateContract, got %v", err)
	}
}

func TestStateRootChangesWithState(t *testing.T) {
	e := newTestEngine(t)
	r0, err := e.StateRoot()
	if err != nil {
		t.Fatal(err)
	}
	if !r0.IsZero() {
		t.Fatal("empty state root must be zero")
	}
	kp := keys.FromSeed([]byte("a"))
	execTx(t, e, kp, 0, "counter.add", "hits:1")
	r1, _ := e.StateRoot()
	if r1.IsZero() || r1 == r0 {
		t.Fatal("state root must change after a write")
	}
	execTx(t, e, kp, 1, "counter.add", "hits:1")
	r2, _ := e.StateRoot()
	if r2 == r1 {
		t.Fatal("state root must change after second write")
	}
}

func TestStateRootDeterministicAcrossEngines(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.Register(counterContract{})
		kp := keys.FromSeed([]byte("a"))
		for i := 0; i < 10; i++ {
			tx, _ := ledger.NewTx(kp, uint64(i), "counter.add", []byte("c"+strconv.Itoa(i%3)+":1"))
			e.ExecuteTx(tx, 1)
		}
		return e
	}
	r1, _ := build().StateRoot()
	r2, _ := build().StateRoot()
	if r1 != r2 {
		t.Fatal("state root not deterministic")
	}
}

func blockOf(t testing.TB, txs []*ledger.Tx) *ledger.Block {
	t.Helper()
	return ledger.NewBlock(1, ledger.BlockID{}, [32]byte{}, time.Unix(0, 0).UTC(), keys.Address{}, txs)
}

func TestQueryUnknownContract(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.Query(keys.FromSeed([]byte("a")).Address(), "ghost.method", nil); err == nil {
		t.Fatal("want error for unknown contract")
	}
	if _, err := e.Query(keys.FromSeed([]byte("a")).Address(), "malformed", nil); err == nil {
		t.Fatal("want error for malformed kind")
	}
}

func TestGetExternalReadsOtherNamespace(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	execTx(t, e, kp, 0, "counter.add", "shared:7")
	// spyContract.peek uses ctx.Get (own namespace); verify GetExternal
	// via a bespoke contract.
	if err := e.Register(xreadContract{}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query(kp.Address(), "xread.peek", []byte("counter/shared"))
	if err != nil {
		t.Fatalf("cross-contract read: %v", err)
	}
	if binary.BigEndian.Uint64(out) != 7 {
		t.Fatalf("out=%v", out)
	}
}

// xreadContract reads an absolute "<contract>/<key>" path via GetExternal.
type xreadContract struct{}

func (xreadContract) Name() string { return "xread" }
func (xreadContract) Execute(ctx *Context, method string, args []byte) ([]byte, error) {
	parts := strings.SplitN(string(args), "/", 2)
	if len(parts) != 2 {
		return nil, errors.New("want contract/key")
	}
	return ctx.GetExternal(parts[0], parts[1])
}

func TestGasExhaustionInKeysScan(t *testing.T) {
	e := newTestEngine(t)
	kp := keys.FromSeed([]byte("a"))
	for i := 0; i < 5; i++ {
		execTx(t, e, kp, uint64(i), "counter.add", fmt.Sprintf("k%d:1", i))
	}
	e.SetGasLimit(GasKeys - 1) // sum cannot even list keys
	tx, _ := ledger.NewTx(kp, 5, "counter.sum", nil)
	rec := e.ExecuteTx(tx, 1)
	if rec.OK || !strings.Contains(rec.Err, "out of gas") {
		t.Fatalf("receipt: %+v", rec)
	}
}

// rywContract runs a ';'-separated script against its own namespace and
// returns what its reads saw: "put k v", "del k", "get k" (observes
// "k=v", or "k=<nf>" on store.ErrNotFound), "keys" (observes the sorted
// key list) and "fail" (aborts the transaction with an error).
type rywContract struct{}

func (rywContract) Name() string { return "ryw" }

func (rywContract) Execute(ctx *Context, method string, args []byte) ([]byte, error) {
	var seen []string
	for _, op := range strings.Split(string(args), ";") {
		f := strings.Fields(op)
		switch {
		case len(f) == 3 && f[0] == "put":
			if err := ctx.Put(f[1], []byte(f[2])); err != nil {
				return nil, err
			}
		case len(f) == 2 && f[0] == "del":
			if err := ctx.Delete(f[1]); err != nil {
				return nil, err
			}
		case len(f) == 2 && f[0] == "get":
			v, err := ctx.Get(f[1])
			switch {
			case errors.Is(err, store.ErrNotFound):
				seen = append(seen, f[1]+"=<nf>")
			case err != nil:
				return nil, err
			default:
				seen = append(seen, f[1]+"="+string(v))
			}
		case len(f) == 1 && f[0] == "keys":
			ks, err := ctx.Keys("")
			if err != nil {
				return nil, err
			}
			seen = append(seen, "["+strings.Join(ks, " ")+"]")
		case len(f) == 1 && f[0] == "fail":
			return nil, errors.New("ryw: scripted failure")
		default:
			return nil, fmt.Errorf("ryw: bad op %q", op)
		}
	}
	return []byte(strings.Join(seen, ",")), nil
}

// TestExecuteBlockReadYourWrites checks the per-transaction overlay on
// the block path: a transaction reads its own puts and deletes, Keys
// merges them over committed state, later transactions in the block see
// the earlier ones' writes, and a failed transaction applies none of its
// puts or deletes.
func TestExecuteBlockReadYourWrites(t *testing.T) {
	type step struct {
		script string
		wantOK bool
		want   string // the receipt result: what the reads saw
	}
	cases := []struct {
		name  string
		seed  string // committed in an earlier block
		steps []step // executed together as one block
		// wantState maps each checked key to its committed value
		// afterwards; "" means the key must be absent.
		wantState map[string]string
	}{
		{
			name:      "get after own put",
			seed:      "put a old",
			steps:     []step{{"put a new;get a", true, "a=new"}},
			wantState: map[string]string{"a": "new"},
		},
		{
			name:      "get after own delete",
			seed:      "put a old",
			steps:     []step{{"get a;del a;get a", true, "a=old,a=<nf>"}},
			wantState: map[string]string{"a": ""},
		},
		{
			name:      "put after own delete",
			seed:      "put a old",
			steps:     []step{{"del a;put a again;get a", true, "a=again"}},
			wantState: map[string]string{"a": "again"},
		},
		{
			name:      "keys lists own puts and hides own deletes",
			seed:      "put a 1;put b 2",
			steps:     []step{{"put c 3;del a;keys", true, "[b c]"}},
			wantState: map[string]string{"a": "", "b": "2", "c": "3"},
		},
		{
			name: "failed tx leaves deletes and puts unapplied",
			seed: "put a old;put b old",
			steps: []step{
				{"del a;put b new;put c 1;get a;fail", false, ""},
				{"get a;get b;get c;keys", true, "a=old,b=old,c=<nf>,[a b]"},
			},
			wantState: map[string]string{"a": "old", "b": "old", "c": ""},
		},
		{
			name: "later tx sees earlier delete in the same block",
			seed: "put a old",
			steps: []step{
				{"del a", true, ""},
				{"get a;keys", true, "a=<nf>,[]"},
			},
			wantState: map[string]string{"a": ""},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			if err := e.Register(rywContract{}); err != nil {
				t.Fatal(err)
			}
			kp := keys.FromSeed([]byte("ryw"))
			if rec := execTx(t, e, kp, 0, "ryw.run", tc.seed); !rec.OK {
				t.Fatalf("seed failed: %s", rec.Err)
			}
			txs := make([]*ledger.Tx, len(tc.steps))
			for i, s := range tc.steps {
				tx, err := ledger.NewTx(kp, uint64(i+1), "ryw.run", []byte(s.script))
				if err != nil {
					t.Fatal(err)
				}
				txs[i] = tx
			}
			recs := e.ExecuteBlock(blockOf(t, txs))
			for i, s := range tc.steps {
				if recs[i].OK != s.wantOK {
					t.Fatalf("step %d ok=%v want %v (err %q)", i, recs[i].OK, s.wantOK, recs[i].Err)
				}
				if s.wantOK && string(recs[i].Result) != s.want {
					t.Fatalf("step %d saw %q want %q", i, recs[i].Result, s.want)
				}
			}
			for k, want := range tc.wantState {
				v, err := e.State().Get("ryw/" + k)
				switch {
				case want == "" && !errors.Is(err, store.ErrNotFound):
					t.Fatalf("key %s: want absent, got %q (err %v)", k, v, err)
				case want != "" && (err != nil || string(v) != want):
					t.Fatalf("key %s: got %q (err %v) want %q", k, v, err, want)
				}
			}
		})
	}
}
