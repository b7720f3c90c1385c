package supplychain

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/commitbus"
	"repro/internal/corpus"
	"repro/internal/store"
)

// Commit-bus subscriber names (stable: they key checkpoint blobs).
const (
	// GraphSubscriberName identifies the supply-chain graph subscriber.
	GraphSubscriberName = "supplychain-graph"
	// ExpertMinerName identifies the expert-miner subscriber.
	ExpertMinerName = "expert-miner"
)

// GraphSubscriber keeps the propagation DAG in sync with the chain by
// consuming published events from committed blocks.
type GraphSubscriber struct {
	Graph *Graph
	// Resolve hydrates an off-chain body from its content id. Items that
	// reference a CID are resolved before insertion so the graph's
	// similarity and trace-back queries see the full text even though the
	// chain carries only the reference. Required once off-chain items
	// appear; inline-only deployments may leave it nil.
	Resolve func(cid string) (string, error)
}

var _ commitbus.Subscriber = (*GraphSubscriber)(nil)

// Name implements commitbus.Subscriber.
func (s *GraphSubscriber) Name() string { return GraphSubscriberName }

// OnCommit implements commitbus.Subscriber: every item published in the
// block is inserted into the DAG. Commit order guarantees parents
// precede children, and the contract has already rejected duplicates and
// orphans, so AddItem failures are real index divergence and surface as
// subscriber lag.
func (s *GraphSubscriber) OnCommit(ev commitbus.CommitEvent) error {
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != ContractName || e.Type != "published" {
				continue
			}
			var it Item
			if err := json.Unmarshal(rec.Result, &it); err != nil {
				return fmt.Errorf("supplychain: decode published result: %w", err)
			}
			if it.Text == "" && it.CID != "" {
				if s.Resolve == nil {
					return fmt.Errorf("supplychain: item %s has off-chain body %s but no resolver", it.ID, it.CID)
				}
				text, err := s.Resolve(it.CID)
				if err != nil {
					return fmt.Errorf("supplychain: resolve body of %s: %w", it.ID, err)
				}
				it.Text = text
			}
			if err := s.Graph.AddItem(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot implements commitbus.Subscriber. The blob is a uvarint item
// count followed by the items in insertion order:
//
//	id, topic, text, cid, varint size, creator,
//	uvarint parents, parents × uvarint index, op, uvarint height
//
// Strings are uvarint-length-prefixed. A parent is written as its
// position in the item sequence, which must be earlier than the child's,
// so a snapshot can only describe a graph whose parents precede their
// children.
func (s *GraphSubscriber) Snapshot() ([]byte, error) {
	items := s.Graph.Items()
	pos := make(map[string]int, len(items))
	size := 8
	for i, it := range items {
		pos[it.ID] = i
		size += len(it.ID) + len(it.Topic) + len(it.Text) + len(it.CID) + len(it.Creator) + len(it.Op) + 16 + 4*len(it.Parents)
	}
	w := store.NewSnapWriter(size)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.Str(it.ID)
		w.Str(string(it.Topic))
		w.Str(it.Text)
		w.Str(it.CID)
		w.Varint(int64(it.Size))
		w.Str(it.Creator)
		w.Uvarint(uint64(len(it.Parents)))
		for _, p := range it.Parents {
			w.Uvarint(uint64(pos[p]))
		}
		w.Str(string(it.Op))
		w.Uvarint(it.Height)
	}
	return w.Data(), nil
}

// decodeGraph parses a graph snapshot into its items, in insertion
// order. It rejects parent indexes that do not point to an earlier item,
// and trailing bytes. An empty blob holds no items.
func decodeGraph(data []byte) ([]Item, error) {
	if len(data) == 0 {
		return nil, nil
	}
	r := store.NewSnapReader(data)
	// An item takes at least ten bytes: nine empty fields and a size.
	items := make([]Item, r.Count(10))
	topics := make(map[string]corpus.Topic)
	for i := 0; i < len(items) && r.Err() == nil; i++ {
		it := &items[i]
		it.ID = r.Str()
		raw := r.Fixed(r.Count(1))
		topic, ok := topics[string(raw)]
		if !ok {
			topic = corpus.Topic(raw)
			topics[string(topic)] = topic
		}
		it.Topic = topic
		it.Text = r.Str()
		it.CID = r.Str()
		it.Size = int(r.Varint())
		it.Creator = r.Str()
		if np := r.Count(1); np > 0 {
			it.Parents = make([]string, np)
		}
		for j := range it.Parents {
			p := r.Uvarint()
			if p >= uint64(i) {
				r.Fail("item %d parent %d: index %d is not an earlier item", i, j, p)
				break
			}
			it.Parents[j] = items[p].ID
		}
		it.Op = corpus.Op(r.Str())
		it.Height = r.Uvarint()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return items, nil
}

// Restore implements commitbus.Subscriber. A failed restore leaves the
// graph untouched.
func (s *GraphSubscriber) Restore(data []byte) error {
	items, err := decodeGraph(data)
	if err != nil {
		return fmt.Errorf("supplychain: decode graph snapshot: %w", err)
	}
	return s.Graph.Reset(items)
}

// ExpertMiner incrementally indexes committed items by topic so expert
// discovery (§VI, E8) scans only a topic's items instead of the whole
// ledger. It subscribes to the commit bus like every other derived index
// and snapshots into checkpoints.
type ExpertMiner struct {
	mu     sync.RWMutex
	topics map[corpus.Topic][]string
	seen   map[string]bool
}

var _ commitbus.Subscriber = (*ExpertMiner)(nil)

// NewExpertMiner creates an empty miner.
func NewExpertMiner() *ExpertMiner {
	return &ExpertMiner{
		topics: make(map[corpus.Topic][]string),
		seen:   make(map[string]bool),
	}
}

// Name implements commitbus.Subscriber.
func (m *ExpertMiner) Name() string { return ExpertMinerName }

// OnCommit implements commitbus.Subscriber: it records (topic, item)
// pairs straight from the published event attributes.
func (m *ExpertMiner) OnCommit(ev commitbus.CommitEvent) error {
	for _, rec := range ev.Receipts {
		if !rec.OK {
			continue
		}
		for _, e := range rec.Events {
			if e.Contract != ContractName || e.Type != "published" {
				continue
			}
			m.record(corpus.Topic(e.Attrs["topic"]), e.Attrs["id"])
		}
	}
	return nil
}

func (m *ExpertMiner) record(topic corpus.Topic, id string) {
	if id == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.seen[id] {
		return
	}
	m.seen[id] = true
	m.topics[topic] = append(m.topics[topic], id)
}

// TopicItems returns the committed item ids on a topic, in commit order.
func (m *ExpertMiner) TopicItems(topic corpus.Topic) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.topics[topic]...)
}

// Topics returns every indexed topic.
func (m *ExpertMiner) Topics() []corpus.Topic {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]corpus.Topic, 0, len(m.topics))
	for t := range m.topics {
		out = append(out, t)
	}
	return out
}

// minerSnapshot is the serialized form of the miner state.
type minerSnapshot struct {
	Topics map[corpus.Topic][]string `json:"topics"`
}

// Snapshot implements commitbus.Subscriber.
func (m *ExpertMiner) Snapshot() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return json.Marshal(minerSnapshot{Topics: m.topics})
}

// Restore implements commitbus.Subscriber.
func (m *ExpertMiner) Restore(data []byte) error {
	var snap minerSnapshot
	if len(data) > 0 {
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("supplychain: decode miner snapshot: %w", err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.topics = make(map[corpus.Topic][]string, len(snap.Topics))
	m.seen = make(map[string]bool)
	for t, ids := range snap.Topics {
		for _, id := range ids {
			if m.seen[id] {
				continue
			}
			m.seen[id] = true
			m.topics[t] = append(m.topics[t], id)
		}
	}
	return nil
}
