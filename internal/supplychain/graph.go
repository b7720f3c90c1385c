package supplychain

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/contract"
	"repro/internal/factdb"
	"repro/internal/keys"
)

// FactChecker answers whether a text matches the factual database. The
// factdb.Index satisfies it.
type FactChecker interface {
	Contains(text string) bool
	BestMatch(text string) (factdb.Match, bool)
}

// TraceResult is the outcome of tracing one item back toward the factual
// database (paper §VI: "the trace distance of graph from its root to the
// current reported news and the degree of the modifications ... can then be
// used to rank the factualness of the news").
type TraceResult struct {
	ItemID string `json:"itemId"`
	// Rooted reports whether any ancestry path reaches a factual root.
	Rooted bool `json:"rooted"`
	// Score is the factualness in [0,1]: the best path's product of
	// per-hop text similarities times the root's factual match quality.
	Score float64 `json:"score"`
	// Depth is the hop count of the best path (0 for a factual root).
	Depth int `json:"depth"`
	// Path lists item ids from the item back to its best root.
	Path []string `json:"path"`
	// RootFactID is the matched fact id when Rooted.
	RootFactID string `json:"rootFactId,omitempty"`
	// Originator is the creator address of the first node on the best
	// path (walking from the root outward) that substantially modified
	// its parent's content — the paper's accountability target. Empty if
	// no substantial modification happened on the path.
	Originator string `json:"originator,omitempty"`
	// OriginatorItem is the item where the modification happened.
	OriginatorItem string `json:"originatorItem,omitempty"`
}

// ModificationThreshold is the per-hop similarity below which a hop counts
// as a substantial modification for originator attribution.
const ModificationThreshold = 0.9

// MinRootMatch is the minimum similarity to a stored fact for an item to
// count as directly rooted in the factual database. Below it, an item with
// no rooted parents is "unverifiable" — the paper's second group of news
// that "can only be traced back into some unverified news data sources".
const MinRootMatch = 0.3

// Graph is the in-memory news supply-chain DAG. It is built either
// incrementally (AddItem, as the platform indexes committed blocks) or in
// bulk from contract state (Load).
type Graph struct {
	mu       sync.RWMutex
	items    map[string]*Item
	children map[string][]string
	facts    FactChecker
	// order records item ids by insertion, so snapshots replay parents
	// before children.
	order []string

	// hopSim caches per-edge text similarity.
	hopSim map[edgeKey]float64
}

type edgeKey struct{ child, parent string }

// NewGraph creates an empty graph over the given factual database view.
func NewGraph(facts FactChecker) *Graph {
	return &Graph{
		items:    make(map[string]*Item),
		children: make(map[string][]string),
		facts:    facts,
		hopSim:   make(map[edgeKey]float64),
	}
}

// Load builds a graph from all committed news items in the engine.
func Load(e *contract.Engine, asker keys.Address, facts FactChecker) (*Graph, error) {
	items, err := ListItems(e, asker)
	if err != nil {
		return nil, err
	}
	g := NewGraph(facts)
	for i := range items {
		if err := g.AddItem(items[i]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// AddItem inserts one item. Parents must already be present (the contract
// guarantees commit order satisfies this).
func (g *Graph) AddItem(it Item) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.items[it.ID]; ok {
		return fmt.Errorf("%w: %s", ErrItemExists, it.ID)
	}
	for _, p := range it.Parents {
		if _, ok := g.items[p]; !ok {
			return fmt.Errorf("%w: %s (child %s)", ErrParentNotFound, p, it.ID)
		}
	}
	cp := it
	cp.Parents = append([]string(nil), it.Parents...)
	g.items[it.ID] = &cp
	g.order = append(g.order, it.ID)
	for _, p := range cp.Parents {
		g.children[p] = append(g.children[p], it.ID)
		g.hopSim[edgeKey{it.ID, p}] = factdb.Similarity(it.Text, g.items[p].Text)
	}
	return nil
}

// Items returns every item in insertion order (the checkpoint snapshot
// format: parents always precede children).
func (g *Graph) Items() []Item {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Item, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, *g.items[id])
	}
	return out
}

// Reset replaces the graph contents with the given items, added in
// order. If any item fails to add, the graph is left unchanged.
func (g *Graph) Reset(items []Item) error {
	fresh := NewGraph(g.facts)
	fresh.items = make(map[string]*Item, len(items))
	for _, it := range items {
		if err := fresh.AddItem(it); err != nil {
			return err
		}
	}
	g.mu.Lock()
	g.items, g.children, g.order, g.hopSim = fresh.items, fresh.children, fresh.order, fresh.hopSim
	g.mu.Unlock()
	return nil
}

// Len returns the number of items.
func (g *Graph) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.items)
}

// Item returns an item by id.
func (g *Graph) Item(id string) (Item, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	it, ok := g.items[id]
	if !ok {
		return Item{}, fmt.Errorf("%w: %s", ErrItemNotFound, id)
	}
	return *it, nil
}

// Children returns the ids deriving directly from an item.
func (g *Graph) Children(id string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]string(nil), g.children[id]...)
}

// traceState is one node's best-known trace during the memoized walk.
type traceState struct {
	rooted    bool
	score     float64
	depth     int
	next      string // next hop toward the root ("" at the root)
	rootFact  string
	rootMatch float64
}

// Trace ranks one item by walking its ancestry to the factual database.
func (g *Graph) Trace(id string) (TraceResult, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if _, ok := g.items[id]; !ok {
		return TraceResult{}, fmt.Errorf("%w: %s", ErrItemNotFound, id)
	}
	memo := make(map[string]traceState)
	visiting := make(map[string]bool)
	st := g.trace(id, memo, visiting)

	res := TraceResult{ItemID: id, Rooted: st.rooted, Score: st.score, Depth: st.depth}
	// Reconstruct the best path.
	cur := id
	res.Path = append(res.Path, cur)
	for memo[cur].next != "" {
		cur = memo[cur].next
		res.Path = append(res.Path, cur)
	}
	if st.rooted {
		res.RootFactID = st.rootFact
		// Originator: walk the path from the root outward and report the
		// creator of the first substantially-modifying item. A root that
		// itself imperfectly matches the factual database was modified by
		// its own creator.
		if st.rootMatch < ModificationThreshold {
			rootID := res.Path[len(res.Path)-1]
			res.Originator = g.items[rootID].Creator
			res.OriginatorItem = rootID
		} else {
			for i := len(res.Path) - 2; i >= 0; i-- {
				child, parent := res.Path[i], res.Path[i+1]
				if g.hopSim[edgeKey{child, parent}] < ModificationThreshold {
					res.Originator = g.items[child].Creator
					res.OriginatorItem = child
					break
				}
			}
		}
	}
	return res, nil
}

// trace computes the best traceState for an item, memoized over the DAG.
// Caller holds the read lock.
func (g *Graph) trace(id string, memo map[string]traceState, visiting map[string]bool) traceState {
	if st, ok := memo[id]; ok {
		return st
	}
	if visiting[id] {
		// Defensive: the contract prevents cycles, but a hand-built graph
		// could have them; treat a back-edge as unrooted.
		return traceState{}
	}
	visiting[id] = true
	defer delete(visiting, id)

	it := g.items[id]
	var best traceState

	// The item itself may match the factual database (it IS a fact or a
	// near-verbatim copy of one).
	if m, ok := g.facts.BestMatch(it.Text); ok && m.Similarity >= MinRootMatch {
		if m.Similarity >= ModificationThreshold || len(it.Parents) == 0 {
			best = traceState{rooted: true, score: m.Similarity, depth: 0, rootFact: m.Fact.ID, rootMatch: m.Similarity}
		}
	}

	// Or a parent path may score higher: score = hopSim * parentScore.
	parents := append([]string(nil), it.Parents...)
	sort.Strings(parents) // deterministic tie-breaking
	for _, p := range parents {
		ps := g.trace(p, memo, visiting)
		if !ps.rooted {
			continue
		}
		score := g.hopSim[edgeKey{id, p}] * ps.score
		// A parent path wins ties against the direct factual match so the
		// result carries the full declared provenance (a verbatim relay of
		// a fact scores 1.0 either way, but the path matters for
		// propagation analysis).
		directTie := best.next == "" && score >= best.score
		if !best.rooted || score > best.score || directTie {
			best = traceState{
				rooted:    true,
				score:     score,
				depth:     ps.depth + 1,
				next:      p,
				rootFact:  ps.rootFact,
				rootMatch: ps.rootMatch,
			}
		}
	}
	memo[id] = best
	return best
}

// TraceAll ranks every item, returning results keyed by item id. The memo
// is shared across items, so the cost is linear in edges.
func (g *Graph) TraceAll() map[string]TraceResult {
	g.mu.RLock()
	ids := make([]string, 0, len(g.items))
	for id := range g.items {
		ids = append(ids, id)
	}
	g.mu.RUnlock()
	sort.Strings(ids)
	out := make(map[string]TraceResult, len(ids))
	for _, id := range ids {
		// Trace re-acquires the lock; memoization inside Trace is per-call
		// but the DAG walk is bounded by ancestry size.
		if res, err := g.Trace(id); err == nil {
			out[id] = res
		}
	}
	return out
}

// Stats summarizes the graph shape for the E3/E4 contrast.
type Stats struct {
	Items     int     `json:"items"`
	Edges     int     `json:"edges"`
	Roots     int     `json:"roots"`
	MaxDepth  int     `json:"maxDepth"`
	AvgDegree float64 `json:"avgDegree"`
}

// Stats computes graph shape statistics.
func (g *Graph) Stats() Stats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s := Stats{Items: len(g.items)}
	for _, it := range g.items {
		s.Edges += len(it.Parents)
		if len(it.Parents) == 0 {
			s.Roots++
		}
	}
	if s.Items > 0 {
		s.AvgDegree = float64(s.Edges) / float64(s.Items)
	}
	// Longest path by memoized depth over the DAG.
	depth := make(map[string]int, len(g.items))
	var dfs func(id string) int
	dfs = func(id string) int {
		if d, ok := depth[id]; ok {
			return d
		}
		depth[id] = 0 // cycle guard
		best := 0
		for _, p := range g.items[id].Parents {
			if d := dfs(p) + 1; d > best {
				best = d
			}
		}
		depth[id] = best
		return best
	}
	for id := range g.items {
		if d := dfs(id); d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	return s
}
