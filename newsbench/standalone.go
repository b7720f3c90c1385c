package main

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpapi"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// routeOf names the API route of a request in spans and metric names.
func routeOf(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/tx":
		return "tx"
	case r.Method == http.MethodPost && r.URL.Path == "/v1/blobs":
		return "upload"
	case r.Method == http.MethodGet && r.URL.Path == "/v1/search":
		return "search"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/blobs/"):
		return "blob"
	}
	return "other"
}

// handlerSpans wraps the httpapi.Server so a traced run records the
// server-side time of every request, parented to its client span.
func handlerSpans(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
			sp := tr.start("httpapi."+routeOf(r), parent)
			h.ServeHTTP(w, r)
			tr.end(sp)
		})
	}
}

// standaloneRun is one run of publish_heavy or read_feed.
type standaloneRun struct {
	rc  runConfig
	s   shape
	in  *inputs
	res *result
	tr  *tracer
	nd  *node
	c   *client
}

func runStandalone(rc runConfig, s shape, in *inputs, res *result) (*tracer, error) {
	r := &standaloneRun{rc: rc, s: s, in: in, res: res}
	if rc.trace {
		r.tr = &tracer{}
	}
	if err := r.setup(); err != nil {
		return nil, err
	}
	return r.tr, r.measure()
}

// setup builds the node several times from scratch and reports the
// median; the last one serves the window.
func (r *standaloneRun) setup() error {
	var times []float64
	for k := 0; k < r.rc.setups; k++ {
		dir := filepath.Join(r.rc.work, fmt.Sprintf("node%d", k))
		t0 := time.Now()
		nd, err := openNode(dir)
		if err != nil {
			return fmt.Errorf("open node: %w", err)
		}
		if err := nd.preload(r.in.Preload, r.in.Articles); err != nil {
			nd.close()
			return err
		}
		tc := time.Now()
		if err := nd.p.WriteCheckpoint(); err != nil {
			nd.close()
			return fmt.Errorf("setup checkpoint: %w", err)
		}
		ckpt := time.Since(tc)
		var wrap func(http.Handler) http.Handler
		if r.tr != nil {
			wrap = handlerSpans(r.tr)
			tr := r.tr
			nd.onCommit = func(start, end time.Time) { tr.record("platform.CommitAll", 0, start, end) }
		}
		if err := nd.serve(wrap); err != nil {
			nd.close()
			return err
		}
		c := newClient(nd.url, nil)
		_, err = c.waitReady(10 * time.Second)
		c.close()
		if err != nil {
			nd.close()
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		settleDisk()
		if k < r.rc.setups-1 {
			// The directory stays until the run ends: deleting thousands
			// of files during the window would load the disk under it.
			if err := nd.close(); err != nil {
				return err
			}
			continue
		}
		r.nd = nd
		r.res.layerCkptMs = ms(ckpt)
	}
	r.res.setupTimes(times)
	return nil
}

// find reports which pending markers an in-process search returns.
func (r *standaloneRun) find(pending map[string]*sample) []string {
	var found []string
	for m, s := range pending {
		page := r.nd.p.SearchPage(m, search.RankBM25, 0, 10)
		for _, res := range page.Results {
			if res.ID == s.op.Art.ID {
				found = append(found, m)
				break
			}
		}
	}
	return found
}

// exec performs one op over HTTP.
func (r *standaloneRun) exec(w *watcher) func(*sample) {
	return func(s *sample) {
		o := s.op
		var body []byte
		switch o.Kind {
		case opPublish, opRelay, opVote:
			if o.Kind == opPublish {
				s.err = r.c.upload(o.Art)
			}
			if s.err == nil {
				var rep txReply
				rep, s.err = r.c.submit(o.Tx)
				switch {
				case s.err != nil:
				case rep.TxID != o.TxID:
					s.err = fmt.Errorf("tx reply id %s, want %s", rep.TxID, o.TxID)
				case !rep.Committed || !rep.OK:
					s.notOK = true
					s.err = fmt.Errorf("tx %s: committed=%v ok=%v %s", o.TxID[:12], rep.Committed, rep.OK, rep.Err)
				}
			}
		case opSearch:
			_, s.err = r.c.search(o.Query, 10)
		case opBlobRead:
			body, s.err = r.c.readBlob(o.Art.CID)
		}
		s.done = time.Now()
		s.committed = s.done
		if s.err == nil && o.Kind == opBlobRead {
			s.err = verifyBlob(o.Art.CID, body)
		}
		if s.err == nil && o.Kind == opPublish {
			w.add(s)
		}
	}
}

// sampler polls gauges that have no history every 10 ms (traced runs).
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	max  map[string]float64
}

func startSampler(every time.Duration, probe func() map[string]float64) *sampler {
	sm := &sampler{stop: make(chan struct{}), max: map[string]float64{}}
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-sm.stop:
				return
			case <-t.C:
			}
			vals := probe()
			sm.mu.Lock()
			for k, v := range vals {
				if v > sm.max[k] {
					sm.max[k] = v
				}
			}
			sm.mu.Unlock()
		}
	}()
	return sm
}

func (sm *sampler) finish() map[string]float64 {
	if sm == nil {
		return map[string]float64{}
	}
	close(sm.stop)
	sm.wg.Wait()
	return sm.max
}

func (r *standaloneRun) measure() error {
	nd := r.nd
	r.c = newClient(nd.url, r.tr)
	defer r.c.close()
	res := r.res
	before, err := r.c.metrics()
	if err != nil {
		return err
	}
	walPath := filepath.Join(nd.dir, "chain.log")
	walBefore := fileSize(walPath)
	var sm *sampler
	if r.tr != nil {
		sm = startSampler(10*time.Millisecond, func() map[string]float64 {
			return map[string]float64{
				"mempool": float64(nd.p.MempoolSize()),
				"lag":     float64(nd.p.SearchIndexerStats().Pending),
			}
		})
	}
	w := newWatcher(time.Millisecond, r.find)
	exec := r.exec(w)
	spansBefore := nd.p.Telemetry().Tracer().Total()

	wStart := time.Now()
	var samples []*sample
	if r.s.clients > 0 {
		samples, err = runClosed(r.in.Streams, r.rc.window, exec)
		if err != nil {
			w.drain(0)
			sm.finish()
			return err
		}
	} else {
		samples = runOpen(r.in.Streams[0], make(chan struct{}, runtime.NumCPU()), exec)
	}
	wEnd := time.Now()
	missing := w.drain(30 * time.Second)
	maxes := sm.finish()
	if missing > 0 {
		res.fail("%d acked publishes never became searchable by their marker", missing)
	}
	// Two cycles: the first runs finalizers that free more.
	runtime.GC()
	runtime.GC()
	var mstats runtime.MemStats
	runtime.ReadMemStats(&mstats)
	heapMB := float64(mstats.HeapAlloc) / (1 << 20)

	// Output checks after the window, over the same API.
	cStart := time.Now()
	for _, s := range samples {
		if !s.ok() || !s.op.write() {
			continue
		}
		if rec, ok := nd.p.Receipt(txIDOf(s.op)); !ok || !rec.OK {
			res.fail("acked %s %s has no OK receipt", s.op.Kind, s.op.TxID[:12])
		}
	}
	// Every published marker is searchable and every published body
	// reads back intact.
	var searchMs, blobMs []float64
	windowHas := map[string]bool{}
	for _, s := range samples {
		windowHas[s.op.Kind] = true
		switch {
		case !s.ok():
		case s.op.Kind == opSearch:
			searchMs = append(searchMs, ms(s.done.Sub(s.due)))
		case s.op.Kind == opBlobRead:
			blobMs = append(blobMs, ms(s.done.Sub(s.due)))
		case s.op.Kind == opPublish:
			for _, check := range []func(*client, *article) error{searchable, readsBack} {
				if err := check(r.c, s.op.Art); err != nil {
					res.fail("%v", err)
				}
			}
		}
	}
	cEnd := time.Now()
	after, err := r.c.metrics()
	if err != nil {
		return err
	}
	d := delta(before, after)

	// End-to-end metrics of the window.
	var commitMs, searchableMs, late []float64
	for _, s := range samples {
		res.Attempted++
		late = append(late, ms(s.genLate()))
		if !s.ok() {
			res.Failed++
			continue
		}
		if s.op.write() {
			commitMs = append(commitMs, ms(s.committed.Sub(s.due)))
		}
		if s.op.Kind == opPublish && !s.searchable.IsZero() {
			searchableMs = append(searchableMs, ms(s.searchable.Sub(s.due)))
		}
	}
	rate, writes := writeRate(samples)
	res.e2e("write_tx_per_s", rate, "1/s", writes)
	res.latencies("commit", commitMs)
	res.latencies("searchable", searchableMs)
	res.readLatencies("search", searchMs)
	res.readLatencies("blob_read", blobMs)
	lateP99 := quantile(late, 0.99)
	res.genLate(lateP99)

	// Close without a final checkpoint, then time reopening to the same
	// head from the setup checkpoint plus the window's WAL tail.
	height := nd.p.Chain().Height()
	head := nd.p.Chain().HeadID().String()
	root, err := nd.p.Engine().StateRoot()
	if err != nil {
		return err
	}
	var spans []telemetry.SpanData
	if r.tr != nil {
		// The node's trace ring keeps only its newest spans; a window
		// whose commit spans no longer all fit is refused, not reported
		// with its first commits missing.
		ring := nd.p.Telemetry().Tracer()
		spans = ring.Spans()
		if n := ring.Total() - spansBefore; n > uint64(len(spans)) {
			return fmt.Errorf("the node's trace ring holds %d spans but the window and checks finished %d: use a shorter --seconds for a traced run", len(spans), n)
		}
	}
	if err := nd.close(); err != nil {
		return fmt.Errorf("close node: %w", err)
	}
	var restarts []float64
	var last *reopened
	for i := 0; i < reopens; i++ {
		ro, secs, err := reopen(nd.dir)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		restarts = append(restarts, secs)
		gotRoot, rerr := ro.p.Engine().StateRoot()
		if ro.p.Chain().Height() != height || ro.p.Chain().HeadID().String() != head || rerr != nil || gotRoot != root {
			res.fail("reopen %d: head %d/%s root %s, want %d/%s root %s", i, ro.p.Chain().Height(), ro.p.Chain().HeadID().Short(), gotRoot.Short(), height, head[:12], root.Short())
		}
		if i < reopens-1 {
			if err := ro.close(); err != nil {
				return err
			}
		} else {
			last = ro
		}
	}
	res.e2e("restart_s", median(restarts), "s", len(restarts))
	res.e2e("heap_mb", heapMB, "MiB", 1)
	res.e2e("ok_frac", 1-ratio(float64(res.Failed), float64(res.Attempted)), "frac", res.Attempted)

	if r.tr != nil {
		r.layers(samples, spans, d, maxes, wStart, wEnd, cStart, cEnd, windowHas, last)
		res.layer("store.checkpoint_ms", res.layerCkptMs, "ms", 1)
		res.layer("store.replay_blocks", float64(last.p.Chain().Height()-last.p.CheckpointHeight()), "count", 1)
		res.layer("store.wal_bytes_per_tx", ratio(float64(fileSize(walPath)-walBefore), d.sumOf("trustnews_platform_txs_committed_total")), "B/tx", 1)
		res.layer("bench.gen_late_p99_ms", lateP99, "ms", len(late))
	}
	return last.close()
}

func pageHas(p searchPage, id string) bool {
	for _, r := range p.Results {
		if r.ID == id {
			return true
		}
	}
	return false
}

func txIDOf(o *op) (id ledger.TxID) {
	raw, _ := hex.DecodeString(o.TxID)
	copy(id[:], raw)
	return id
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// reopens is how many times a run reopens the closed node; restart_s is
// their median.
const reopens = 9

// reopened is a node brought back from its data directory and serving
// the API, without the boot-time extras the restart time excludes.
type reopened struct {
	p       *platform.Platform
	closeFn func() error
	srv     *http.Server
	serveCh chan error
}

// reopen times platform.Open through to the API answering /v1/healthz
// at the reopened head.
func reopen(dir string) (*reopened, float64, error) {
	t0 := time.Now()
	p, closeFn, err := platform.Open(dir, nodeConfig())
	if err != nil {
		return nil, 0, err
	}
	ro := &reopened{p: p, closeFn: closeFn, serveCh: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeFn()
		return nil, 0, err
	}
	ro.srv = &http.Server{Handler: httpapi.New(p, true), ReadHeaderTimeout: 5 * time.Second}
	go func() { ro.serveCh <- ro.srv.Serve(ln) }()
	c := newClient("http://"+ln.Addr().String(), nil)
	defer c.close()
	h, err := c.waitReady(10 * time.Second)
	secs := time.Since(t0).Seconds()
	if err == nil && h.Height != p.Chain().Height() {
		err = fmt.Errorf("healthz height %d, chain %d", h.Height, p.Chain().Height())
	}
	if err != nil {
		ro.close()
		return nil, 0, err
	}
	return ro, secs, nil
}

func (ro *reopened) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := ro.srv.Shutdown(ctx)
	if serr := <-ro.serveCh; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, ro.closeFn())
}
