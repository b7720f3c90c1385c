package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/blobstore"
	"repro/internal/corpus"
	"repro/internal/keys"
	"repro/internal/ledger"
	"repro/internal/ranking"
	"repro/internal/supplychain"
)

// Operation kinds a workload mixes.
const (
	opPublish  = "publish"
	opRelay    = "relay"
	opVote     = "vote"
	opSearch   = "search"
	opBlobRead = "blob_read"
)

// authoritySeed is platform.DefaultConfig's authority seed; mints must be
// signed by it.
const authoritySeed = "platform-authority"

// mintBudget is the vote budget each user receives before the window.
const mintBudget = 10_000

// article is one news item the benchmark publishes or targets.
type article struct {
	ID     string
	Topic  corpus.Topic
	Body   []byte
	CID    string // content id of Body
	Marker string // token unique to this article, for searchability
	Inline bool   // published with its body on-chain, not in the blob store
}

// op is one pre-generated request. Signed writes carry their encoded
// transaction; nothing is signed or hashed after timing starts.
type op struct {
	Kind  string
	Due   time.Duration // offset from the window start (open loop only)
	User  int           // signer index, -1 for reads
	Art   *article      // publish: the new article; others: the target
	Tx    []byte        // encoded signed tx (writes)
	TxID  string
	Query string // search
}

func (o *op) write() bool { return o.Tx != nil }

// inputs is everything a run feeds the program, generated from the seed
// before any timing starts.
type inputs struct {
	Preload  [][]byte   // encoded signed txs committed during setup, in order
	Articles []*article // the preloaded articles (targets of relay/vote/read)
	Streams  [][]op     // one stream per closed-loop client, or one schedule
	Users    []*keys.KeyPair
}

// shape fixes a workload's input sizes.
type shape struct {
	users    int
	preload  int  // preloaded articles
	inline   bool // publish every body on-chain instead of via the blob store
	clients  int  // closed loop: parallel clients; 0 = open loop
	perCli   int  // closed loop: ops generated per client
	rate     float64
	mix      []weighted
	window   time.Duration
	queryLen [2]int // search terms, min..max

	// offChainPreload is how many preloaded articles, the most popular
	// ones, keep their bodies in the blob store; the rest publish them
	// on-chain, so a large preload does not write (and a run delete) a
	// blob-store file pair per article. Blob reads target these.
	offChainPreload int
}

type weighted struct {
	kind string
	w    int
}

// gen is the seeded generator behind one inputs value.
type gen struct {
	seed    int64
	rng     *rand.Rand
	text    *corpus.Generator
	users   []*keys.KeyPair
	nonces  []uint64
	arts    []*article
	voted   map[string]bool
	votes   map[int]int // votes cast per user
	nextArt int
	uzipf   *rand.Zipf
	azipf   *rand.Zipf
	bzipf   *rand.Zipf // over the off-chain preloaded articles
	lexicon []string
	lzipf   *rand.Zipf
	recent  []int    // users of the last few open-loop writes
	deck    []string // op kinds still to deal (drawKind)
}

func newGen(seed int64, s shape) *gen {
	rng := rand.New(rand.NewSource(seed))
	g := &gen{seed: seed, rng: rng, text: corpus.NewGenerator(seed), voted: map[string]bool{}, votes: map[int]int{}}
	for i := 0; i < s.users; i++ {
		g.users = append(g.users, keys.FromSeed([]byte(fmt.Sprintf("newsbench-%d-user-%d", seed, i))))
	}
	g.nonces = make([]uint64, s.users)
	g.uzipf = rand.NewZipf(rng, 1.2, 1, uint64(s.users-1))
	// Search terms come from the article lexicon, zipf-ranked by first
	// appearance, so popular terms hit many documents.
	seen := map[string]bool{}
	lex := corpus.NewGenerator(seed + 1)
	for i := 0; i < 2000; i++ {
		for _, w := range corpus.Tokenize(lex.Factual().Text) {
			if len(w) > 3 && !seen[w] {
				seen[w] = true
				g.lexicon = append(g.lexicon, w)
			}
		}
	}
	g.lzipf = rand.NewZipf(rng, 1.1, 1, uint64(len(g.lexicon)-1))
	return g
}

// newArticle generates the next article body with its unique marker.
func (g *gen) newArticle(inline bool) *article {
	st := g.text.Factual()
	g.nextArt++
	a := &article{
		ID:     fmt.Sprintf("nb-%d-%06d", g.seed, g.nextArt),
		Topic:  st.Topic,
		Marker: "mk" + strconv.FormatInt(g.seed, 36) + "x" + strconv.Itoa(g.nextArt),
		Inline: inline,
	}
	a.Body = []byte(st.Text + " " + a.Marker)
	cid, err := blobstore.ComputeCID(a.Body, blobstore.DefaultChunkSize)
	if err != nil {
		panic(err) // non-empty body: cannot fail
	}
	a.CID = string(cid)
	return a
}

// sign builds user u's next transaction.
func (g *gen) sign(kp *keys.KeyPair, nonce *uint64, kind string, payload []byte) ([]byte, string) {
	tx, err := ledger.NewTx(kp, *nonce, kind, payload)
	if err != nil {
		panic(err) // payloads are generated well-formed
	}
	*nonce++
	return tx.Encode(), tx.ID().String()
}

func (g *gen) publishPayload(a *article, parent *article) []byte {
	var parents []string
	var op corpus.Op
	if parent != nil {
		parents, op = []string{parent.ID}, corpus.OpVerbatim
	}
	var raw []byte
	var err error
	if a.Inline {
		raw, err = supplychain.PublishPayload(a.ID, a.Topic, string(a.Body), parents, op)
	} else {
		raw, err = supplychain.PublishRefPayload(a.ID, a.Topic, a.CID, len(a.Body), parents, op)
	}
	if err != nil {
		panic(err)
	}
	return raw
}

// target draws the index of a zipf-popular preloaded article.
func (g *gen) target() int { return int(g.azipf.Uint64()) % len(g.arts) }

// pickUser draws a zipf user from those with u%mod == rem. Open-loop
// streams (mod 1) also skip users of the last few writes, so one user's
// writes are rarely in flight together; runOpen still orders them.
func (g *gen) pickUser(mod, rem int) int {
	for {
		u := int(g.uzipf.Uint64())
		if u%mod != rem {
			continue
		}
		if mod == 1 {
			for busy := true; busy; {
				busy = false
				for _, r := range g.recent {
					if r == u {
						u, busy = (u+1)%len(g.users), true
						break
					}
				}
			}
			g.recent = append(g.recent, u)
			if len(g.recent) > 4 {
				g.recent = g.recent[1:]
			}
		}
		return u
	}
}

// makeOp generates one op of the given kind for a user partition.
func (g *gen) makeOp(kind string, s shape, mod, rem int) op {
	o := op{Kind: kind, User: -1}
	switch kind {
	case opPublish:
		o.User = g.pickUser(mod, rem)
		o.Art = g.newArticle(s.inline)
		o.Tx, o.TxID = g.sign(g.users[o.User], &g.nonces[o.User], "news.publish", g.publishPayload(o.Art, nil))
	case opRelay:
		o.User = g.pickUser(mod, rem)
		parent := g.arts[g.target()]
		g.nextArt++
		o.Art = &article{ID: fmt.Sprintf("nb-%d-%06d", g.seed, g.nextArt), Topic: parent.Topic, Body: parent.Body, CID: parent.CID, Marker: parent.Marker, Inline: parent.Inline}
		o.Tx, o.TxID = g.sign(g.users[o.User], &g.nonces[o.User], "news.publish", g.publishPayload(o.Art, parent))
	case opVote:
		o.User = g.pickUser(mod, rem)
		// A user votes on an item at most once: a user who voted on
		// every article hands the vote to the next user of its
		// partition, and a vote walks to the next article until the
		// pair is fresh.
		for g.votes[o.User] == len(g.arts) {
			o.User = (o.User + mod) % len(g.users)
		}
		g.votes[o.User]++
		idx := g.target()
		a := g.arts[idx]
		for g.voted[a.ID+"/"+strconv.Itoa(o.User)] {
			idx = (idx + 1) % len(g.arts)
			a = g.arts[idx]
		}
		g.voted[a.ID+"/"+strconv.Itoa(o.User)] = true
		o.Art = a
		payload, err := ranking.VotePayload(a.ID, g.rng.Intn(2) == 0, 1)
		if err != nil {
			panic(err)
		}
		o.Tx, o.TxID = g.sign(g.users[o.User], &g.nonces[o.User], "rank.vote", payload)
	case opSearch:
		n := s.queryLen[0] + g.rng.Intn(s.queryLen[1]-s.queryLen[0]+1)
		q := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				q += " "
			}
			q += g.lexicon[g.lzipf.Uint64()]
		}
		o.Query = q
	case opBlobRead:
		o.Art = g.arts[int(g.bzipf.Uint64())]
	}
	return o
}

// drawKind deals op kinds from shuffled decks holding each kind exactly
// its weight times, so every seed offers the same mix in every stretch
// of ops; only the order within a deck depends on the seed.
func (g *gen) drawKind(mix []weighted) string {
	if len(g.deck) == 0 {
		for _, m := range mix {
			for i := 0; i < m.w; i++ {
				g.deck = append(g.deck, m.kind)
			}
		}
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	k := g.deck[0]
	g.deck = g.deck[1:]
	return k
}

// interleave deals op kinds in a fixed, evenly spread order (smooth
// weighted round robin): each kind keeps exactly its share in every
// stretch of the schedule, and the writes of an open loop fall at the
// same evenly spaced times whatever the seed. credit carries the state.
func interleave(mix []weighted, credit []int) string {
	total, best := 0, 0
	for i, m := range mix {
		credit[i] += m.w
		total += m.w
		if credit[i] > credit[best] {
			best = i
		}
	}
	credit[best] -= total
	return mix[best].kind
}

// generate builds a workload's inputs from the seed.
func generate(seed int64, s shape) *inputs {
	g := newGen(seed, s)
	in := &inputs{Users: g.users}
	auth := keys.FromSeed([]byte(authoritySeed))
	var authNonce uint64
	for _, u := range g.users {
		payload, err := ranking.MintPayload(u.Address(), mintBudget)
		if err != nil {
			panic(err)
		}
		raw, _ := g.sign(auth, &authNonce, "rank.mint", payload)
		in.Preload = append(in.Preload, raw)
	}
	for i := 0; i < s.preload; i++ {
		a := g.newArticle(s.inline || i >= s.offChainPreload)
		u := i % len(g.users)
		raw, _ := g.sign(g.users[u], &g.nonces[u], "news.publish", g.publishPayload(a, nil))
		in.Preload = append(in.Preload, raw)
		g.arts = append(g.arts, a)
	}
	in.Articles = g.arts
	g.azipf = rand.NewZipf(g.rng, 1.2, 1, uint64(len(g.arts)-1))
	if n := min(s.offChainPreload, len(g.arts)); n > 1 {
		g.bzipf = rand.NewZipf(g.rng, 1.2, 1, uint64(n-1))
	}

	if s.clients > 0 {
		// Closed loop: users are partitioned across clients so a
		// client's stream holds every op of its users in nonce order.
		in.Streams = make([][]op, s.clients)
		for c := range in.Streams {
			for i := 0; i < s.perCli; i++ {
				in.Streams[c] = append(in.Streams[c], g.makeOp(g.drawKind(s.mix), s, s.clients, c))
			}
		}
		return in
	}
	// Open loop: one schedule at a fixed rate.
	interval := time.Duration(float64(time.Second) / s.rate)
	n := int(s.window / interval)
	sched := make([]op, 0, n)
	credit := make([]int, len(s.mix))
	for i := 0; i < n; i++ {
		o := g.makeOp(interleave(s.mix, credit), s, 1, 0)
		o.Due = time.Duration(i) * interval
		sched = append(sched, o)
	}
	in.Streams = [][]op{sched}
	return in
}

// digest hashes every byte the program will receive, in order.
func (in *inputs) digest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(b []byte) {
		binary.BigEndian.PutUint64(buf[:], uint64(len(b)))
		h.Write(buf[:])
		h.Write(b)
	}
	for _, tx := range in.Preload {
		put(tx)
	}
	for _, a := range in.Articles {
		put(a.Body)
	}
	for _, st := range in.Streams {
		for _, o := range st {
			put([]byte(o.Kind))
			binary.BigEndian.PutUint64(buf[:], uint64(o.Due))
			h.Write(buf[:])
			put(o.Tx)
			put([]byte(o.Query))
			if o.Art != nil {
				put([]byte(o.Art.ID))
				put(o.Art.Body)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
