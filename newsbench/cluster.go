package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/keys"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// blockInterval is the validators' -block-interval: short, so rounds and
// execution rather than pacing set the commit latency.
const blockInterval = 50 * time.Millisecond

// validators is the cluster size.
const validators = 4

// validator is one trustnewsd process.
type validator struct {
	id        int
	dir       string
	httpAddr  string
	pprofAddr string
	logPath   string
	cmd       *exec.Cmd
	logFile   *os.File
	c         *client
}

// clusterRun is one run of cluster_tcp: four trustnewsd validator
// processes on loopback TCP, the way internal/e2e runs them, with all
// client traffic sent to p0.
type clusterRun struct {
	rc    runConfig
	in    *inputs
	res   *result
	tr    *tracer
	vals  []*validator
	peers string
	slots chan struct{}
}

func runCluster(rc runConfig, s shape, in *inputs, res *result) (*tracer, error) {
	if rc.window > maxClusterSeconds*time.Second {
		return nil, fmt.Errorf("cluster_tcp measures at most %d s: the validators' trace rings hold about %d s of blocks", maxClusterSeconds, telemetry.DefaultTraceCapacity*int(blockInterval/time.Millisecond)/1000)
	}
	if _, err := os.Stat(rc.daemon); err != nil {
		return nil, fmt.Errorf("trustnewsd binary: %w", err)
	}
	r := &clusterRun{rc: rc, in: in, res: res, slots: make(chan struct{}, runtime.NumCPU())}
	if rc.trace {
		r.tr = &tracer{}
	}
	defer r.stopAll()
	if err := r.setup(); err != nil {
		return nil, err
	}
	res.Stamp["block_interval"] = blockInterval.String()
	return r.tr, r.measure()
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// setup boots a fresh cluster and commits the preload, several times;
// setup_s is the median and the last cluster serves the window.
func (r *clusterRun) setup() error {
	var times []float64
	for k := 0; k < r.rc.setups; k++ {
		root := filepath.Join(r.rc.work, fmt.Sprintf("cluster%d", k))
		ports, err := freePorts(3 * validators)
		if err != nil {
			return err
		}
		r.vals = nil
		var peers []string
		for i := 0; i < validators; i++ {
			v := &validator{
				id:        i,
				dir:       filepath.Join(root, fmt.Sprintf("p%d", i)),
				httpAddr:  fmt.Sprintf("127.0.0.1:%d", ports[3*i]),
				pprofAddr: fmt.Sprintf("127.0.0.1:%d", ports[3*i+2]),
				logPath:   filepath.Join(root, fmt.Sprintf("p%d.log", i)),
			}
			v.c = newClient("http://"+v.httpAddr, nil)
			r.vals = append(r.vals, v)
			peers = append(peers, fmt.Sprintf("p%d=127.0.0.1:%d", i, ports[3*i+1]))
		}
		r.peers = strings.Join(peers, ",")
		// Launch every validator before waiting for any, as an operator
		// would: booted one at a time, the first ones' dials to peers that
		// are not up yet back off, and set-up time jumps by a backoff step.
		t0 := time.Now()
		for _, v := range r.vals {
			if err := r.launch(v); err != nil {
				return err
			}
		}
		for _, v := range r.vals {
			if err := r.ready(v); err != nil {
				return err
			}
		}
		if err := r.waitAll("consensus running", func(v *validator) bool {
			h, err := v.c.healthz()
			return err == nil && h.Height >= 1
		}); err != nil {
			return err
		}
		if err := r.preload(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		if k < r.rc.setups-1 {
			r.stopAll() // its directory stays until the run ends
		}
		settleDisk()
	}
	r.res.setupTimes(times)
	return nil
}

// start launches a validator and waits for its API.
func (r *clusterRun) start(v *validator) error {
	if err := r.launch(v); err != nil {
		return err
	}
	return r.ready(v)
}

// launch starts a validator's process.
func (r *clusterRun) launch(v *validator) error {
	if err := os.MkdirAll(v.dir, 0o755); err != nil {
		return err
	}
	lf, err := os.OpenFile(v.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(r.rc.daemon,
		"-node-id", fmt.Sprintf("p%d", v.id),
		"-data", v.dir,
		"-addr", v.httpAddr,
		"-peers", r.peers,
		"-block-interval", blockInterval.String(),
		"-pprof-addr", v.pprofAddr,
	)
	cmd.Stdout, cmd.Stderr = lf, lf
	// A validator must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return err
	}
	v.cmd, v.logFile = cmd, lf
	return nil
}

// ready waits for a launched validator's API.
func (r *clusterRun) ready(v *validator) error {
	if _, err := v.c.waitReady(20 * time.Second); err != nil {
		return fmt.Errorf("p%d: %w\n%s", v.id, err, tail(v.logPath))
	}
	return nil
}

// stop sends SIGTERM (graceful: drain, final checkpoint) and waits.
func (r *clusterRun) stop(v *validator) {
	if v.cmd == nil {
		return
	}
	_ = v.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = v.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = v.cmd.Process.Kill()
		<-done
	}
	v.logFile.Close()
	v.c.close()
	v.cmd = nil
}

func (r *clusterRun) stopAll() {
	var wg sync.WaitGroup
	for _, v := range r.vals {
		wg.Add(1)
		go func(v *validator) {
			defer wg.Done()
			r.stop(v)
		}(v)
	}
	wg.Wait()
}

func tail(path string) string {
	raw, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitAll polls cond on every validator until it holds (30 s cap).
func (r *clusterRun) waitAll(what string, cond func(*validator) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, v := range r.vals {
		for !cond(v) {
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for %s on p%d\n%s", what, v.id, tail(v.logPath))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// preload submits the mints and preloaded articles to p0 and waits until
// every validator has applied them.
func (r *clusterRun) preload() error {
	p0 := r.vals[0].c
	for i, tx := range r.in.Preload {
		if _, err := p0.submit(tx); err != nil {
			return fmt.Errorf("preload tx %d: %w", i, err)
		}
	}
	lastArt := r.in.Articles[len(r.in.Articles)-1].ID
	auth := keys.FromSeed([]byte(authoritySeed)).Address().String()
	return r.waitAll("preload committed", func(v *validator) bool {
		var acct struct {
			Nonce uint64 `json:"nonce"`
		}
		if v.c.getJSON("accounts", "/v1/accounts/"+auth, &acct) != nil || acct.Nonce != uint64(len(r.in.Users)) {
			return false
		}
		if _, err := v.c.do("items", http.MethodGet, "/v1/items/"+lastArt, nil, ""); err != nil {
			return false
		}
		h, err := v.c.healthz()
		return err == nil && h.MempoolDepth == 0
	})
}

// find reports which pending markers p0's search returns, in one
// batched query per poll.
func (r *clusterRun) find(c *client) func(map[string]*sample) []string {
	return func(pending map[string]*sample) []string {
		var ms []string
		ids := map[string]string{}
		for m, s := range pending {
			if len(ms) == 32 {
				break
			}
			ms = append(ms, m)
			ids[s.op.Art.ID] = m
		}
		r.slots <- struct{}{}
		page, err := c.search(strings.Join(ms, " "), 4*len(ms))
		<-r.slots
		if err != nil {
			return nil
		}
		var found []string
		for _, res := range page.Results {
			if m, ok := ids[res.ID]; ok {
				found = append(found, m)
			}
		}
		return found
	}
}

// nodeTraces fetches a validator's retained spans and how many spans it
// has finished in all, retained or not.
func nodeTraces(c *client) ([]telemetry.SpanData, uint64, error) {
	var exp struct {
		Total uint64               `json:"total"`
		Spans []telemetry.SpanData `json:"spans"`
	}
	err := c.getJSON("traces", "/v1/traces", &exp)
	return exp.Spans, exp.Total, err
}

// maxClusterSeconds is the longest cluster_tcp window. A validator
// records one platform.applyExternalBlock span per block, a block every
// blockInterval, in a ring of telemetry.DefaultTraceCapacity spans
// (about 200 s of blocks); commit times are read from those spans after
// the window, so set-up, window and checks must fit in the ring.
const maxClusterSeconds = 120

// applied maps block height to when a validator finished applying it.
func applied(spans []telemetry.SpanData) map[uint64]time.Time {
	out := map[uint64]time.Time{}
	for _, s := range spans {
		if s.Name != "platform.applyExternalBlock" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "height" {
				h, _ := strconv.ParseUint(a.Value, 10, 64)
				out[h] = s.Start.Add(time.Duration(s.DurationNS))
			}
		}
	}
	return out
}

// heapMB reads a validator's live heap after a forced GC from its pprof
// heap profile (debug=1 prints runtime.MemStats).
func heapMB(pprofAddr string) (float64, error) {
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return n / (1 << 20), err
		}
	}
	return 0, fmt.Errorf("no HeapAlloc in heap profile of %s", pprofAddr)
}

func (r *clusterRun) measure() error {
	res := r.res
	p0 := newClient("http://"+r.vals[0].httpAddr, r.tr)
	defer p0.close()
	before := make([]prom, validators)
	for i, v := range r.vals {
		m, err := v.c.metrics()
		if err != nil {
			return err
		}
		before[i] = m
	}
	walPath := filepath.Join(r.vals[0].dir, "chain.log")
	walBefore := fileSize(walPath)
	var sm *sampler
	if r.tr != nil {
		sm = startSampler(50*time.Millisecond, func() map[string]float64 {
			r.slots <- struct{}{}
			h, err := p0.healthz()
			<-r.slots
			if err != nil {
				return nil
			}
			return map[string]float64{"mempool": float64(h.MempoolDepth), "lag": float64(h.IndexerLagDocs)}
		})
	}
	w := newWatcher(20*time.Millisecond, r.find(newClient(p0.base, nil)))
	exec := func(s *sample) {
		var rep txReply
		rep, s.err = p0.submit(s.op.Tx)
		s.done = time.Now()
		if s.err == nil && rep.TxID != s.op.TxID {
			s.err = fmt.Errorf("tx reply id %s, want %s", rep.TxID, s.op.TxID)
		}
		if s.err == nil && s.op.Kind == opPublish {
			w.add(s)
		}
	}
	wStart := time.Now()
	samples := runOpen(r.in.Streams[0], r.slots, exec)
	wEnd := time.Now()
	missing := w.drain(30 * time.Second)
	maxes := sm.finish()
	if missing > 0 {
		res.fail("%d acked publishes never became searchable on p0", missing)
	}

	// Committed: the block holding each acked write is on all four
	// validators; its commit time is the latest of their apply times.
	commitFail, err := r.checkCommitted(samples)
	if err != nil {
		return err
	}
	r.checkSearchable(samples)
	var heaps []float64
	for _, v := range r.vals {
		h, err := heapMB(v.pprofAddr)
		if err != nil {
			return err
		}
		heaps = append(heaps, h)
	}
	deltas := make([]prom, validators)
	for i, v := range r.vals {
		m, err := v.c.metrics()
		if err != nil {
			return err
		}
		deltas[i] = delta(before[i], m)
	}
	var p0Spans []telemetry.SpanData
	if r.tr != nil {
		if p0Spans, _, err = nodeTraces(r.vals[0].c); err != nil {
			return err
		}
	}

	var submitMs, commitMs, searchableMs, late []float64
	for _, s := range samples {
		res.Attempted++
		late = append(late, ms(s.genLate()))
		if !s.ok() {
			res.Failed++
			continue
		}
		submitMs = append(submitMs, ms(s.done.Sub(s.due)))
		if !s.committed.IsZero() {
			commitMs = append(commitMs, ms(s.committed.Sub(s.due)))
		}
		if !s.searchable.IsZero() {
			searchableMs = append(searchableMs, ms(s.searchable.Sub(s.due)))
		}
	}
	res.Failed += commitFail
	rate, writes := writeRate(samples)
	res.e2e("write_tx_per_s", rate, "1/s", writes)
	res.latencies("commit", commitMs)
	res.latencies("searchable", searchableMs)
	res.e2e("heap_mb", sum(heaps)/float64(len(heaps)), "MiB", len(heaps))
	lateP99 := quantile(late, 0.99)
	res.genLate(lateP99)

	restarts, err := r.restartEach()
	if err != nil {
		return err
	}
	res.e2e("restart_s", median(restarts), "s", len(restarts))
	res.e2e("ok_frac", 1-ratio(float64(res.Failed), float64(res.Attempted)), "frac", res.Attempted)
	if err := r.checkConverged(); err != nil {
		res.fail("%v", err)
	}

	if r.tr != nil {
		d0 := deltas[0]
		all := prom{}
		for _, d := range deltas {
			for k, v := range d {
				all[k] += v
			}
		}
		txs := d0.sumOf("trustnews_platform_txs_committed_total")
		res.nodeLayers(d0, all, txs)
		res.layer("ledger.mempool_occupancy_max", maxes["mempool"], "count", 1)
		// The ack of a write is p0 admitting it to its mempool.
		res.layer("ledger.submit_ack_ms_p95", quantile(submitMs, 0.95), "ms", len(submitMs))
		res.layer("search.indexer_lag_docs_max", maxes["lag"], "count", 1)
		cs := splitCommits(p0Spans, "platform.applyExternalBlock", wStart, wEnd)
		res.addCommitLayers(cs, wEnd.Sub(wStart), false)
		res.layer("contract.receipt_fail_frac", ratio(float64(commitFail), float64(len(submitMs))), "frac", len(submitMs))
		res.layer("store.wal_bytes_per_tx", ratio(float64(fileSize(walPath)-walBefore), txs), "B/tx", 1)
		res.layer("bench.gen_late_p99_ms", lateP99, "ms", len(late))
		var client float64
		var n int
		for _, sp := range r.tr.byName("client.tx", wStart, wEnd) {
			client += ms(sp.dur())
			n++
		}
		handler := 1e3 * d0.sumOf("trustnews_httpapi_request_seconds_sum", `route="POST /v1/tx"`)
		res.SelfTime = []metric{
			{"bench.client", client - handler, "ms", n},
			{"httpapi.handler (p0, window and checks)", handler, "ms", int(d0.sumOf("trustnews_httpapi_request_seconds_count", `route="POST /v1/tx"`))},
			{"platform.applyExternalBlock (p0)", sum(cs.commit), "ms", len(cs.commit)},
		}
		// The in-process layer calls run on p0's data directory, opened
		// in this process once the validators have stopped.
		r.stopAll()
		p, closeFn, err := platform.Open(r.vals[0].dir, nodeConfig())
		if err != nil {
			return fmt.Errorf("open p0's data: %w", err)
		}
		// The cluster's bodies are on-chain, so it has no blob reads.
		var markers []string
		for _, s := range samples {
			if s.ok() && s.op.Kind == opPublish {
				markers = append(markers, s.op.Art.Marker)
			}
		}
		res.directLayers(p, markers, nil, r.rc.seed, r.in.Articles)
		if err := closeFn(); err != nil {
			return err
		}
	}
	return nil
}

// checkCommitted finds each acked write's block on every validator,
// checks that all four hold the same header for it and that the write's
// effect is there, and sets its commit time. It returns how many acked
// writes failed a check.
func (r *clusterRun) checkCommitted(samples []*sample) (int, error) {
	res := r.res
	appliedAt := make([]map[uint64]time.Time, validators)
	evicted := make([]bool, validators)
	acked := 0
	for _, s := range samples {
		if s.ok() {
			acked++
		}
	}
	// Wait until every validator has every acked write.
	deadline := time.Now().Add(30 * time.Second)
	headers := make([]map[string]json.RawMessage, validators)
	for i, v := range r.vals {
		headers[i] = map[string]json.RawMessage{}
		for _, s := range samples {
			if !s.ok() {
				continue
			}
			for {
				var pr struct {
					Header json.RawMessage `json:"header"`
				}
				err := v.c.getJSON("proofs", "/v1/proofs/"+s.op.TxID, &pr)
				if err == nil {
					headers[i][s.op.TxID] = pr.Header
					break
				}
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		spans, total, err := nodeTraces(v.c)
		if err != nil {
			res.fail("traces of p%d: %v", v.id, err)
		}
		appliedAt[i] = applied(spans)
		evicted[i] = total > uint64(len(spans))
	}
	failed := 0
	votes := map[int]uint64{}
	for _, s := range samples {
		if !s.ok() {
			continue
		}
		var hdr struct {
			Height uint64 `json:"height"`
		}
		bad := false
		for i := range r.vals {
			h, ok := headers[i][s.op.TxID]
			if !ok || !bytes.Equal(h, headers[0][s.op.TxID]) {
				res.fail("acked %s %s not in the same block on p%d", s.op.Kind, s.op.TxID[:12], i)
				bad = true
				break
			}
		}
		if !bad {
			_ = json.Unmarshal(headers[0][s.op.TxID], &hdr)
			var last time.Time
			for i := range r.vals {
				at, ok := appliedAt[i][hdr.Height]
				if !ok && evicted[i] && hdr.Height < minHeight(appliedAt[i]) {
					return 0, fmt.Errorf("p%d's trace ring no longer holds height %d: the window was too long to time commits", i, hdr.Height)
				}
				if !ok {
					res.fail("p%d has no apply span for height %d", i, hdr.Height)
					bad = true
					break
				}
				if at.After(last) {
					last = at
				}
			}
			s.committed = last
		}
		switch {
		case bad:
		case s.op.Kind == opPublish:
			// The publish's receipt was OK iff the item exists, with its
			// body, on every validator.
			for _, v := range r.vals {
				var it struct {
					Text string `json:"text"`
				}
				if err := v.c.getJSON("items", "/v1/items/"+s.op.Art.ID, &it); err != nil || it.Text != string(s.op.Art.Body) {
					res.fail("item %s on p%d: %v", s.op.Art.ID, v.id, err)
					bad = true
					break
				}
			}
		case s.op.Kind == opVote:
			votes[s.op.User]++
		}
		if bad {
			s.committed = time.Time{}
			failed++
		}
	}
	// Every acked vote staked 1 from its user's minted budget.
	for u, n := range votes {
		addr := r.in.Users[u].Address().String()
		for _, v := range r.vals {
			var acct struct {
				Balance uint64 `json:"balance"`
			}
			if err := v.c.getJSON("accounts", "/v1/accounts/"+addr, &acct); err != nil || acct.Balance != mintBudget-n {
				res.fail("user %d on p%d: balance %d after %d votes (%v)", u, v.id, acct.Balance, n, err)
				failed++
			}
		}
	}
	return failed, nil
}

// minHeight is the lowest height in a validator's apply times.
func minHeight(at map[uint64]time.Time) uint64 {
	lo := ^uint64(0)
	for h := range at {
		lo = min(lo, h)
	}
	return lo
}

// checkSearchable checks that a search on p0 returns every acked
// publish by its marker.
func (r *clusterRun) checkSearchable(samples []*sample) {
	for _, s := range samples {
		if s.ok() && s.op.Kind == opPublish {
			if err := searchable(r.vals[0].c, s.op.Art); err != nil {
				r.res.fail("%v", err)
			}
		}
	}
}

// restartRounds is how many times each validator is restarted.
const restartRounds = 3

// restartEach stops and restarts each validator in turn, restartRounds
// times, and times each restart from process start to serving at least
// the height it stopped at, with the same block there.
func (r *clusterRun) restartEach() ([]float64, error) {
	var out []float64
	for i := 0; i < restartRounds*len(r.vals); i++ {
		v := r.vals[i%len(r.vals)]
		var ch struct {
			Height uint64 `json:"height"`
			HeadID string `json:"headId"`
		}
		if err := v.c.getJSON("chain", "/v1/chain", &ch); err != nil {
			return nil, err
		}
		r.stop(v)
		v.c = newClient("http://"+v.httpAddr, nil)
		t0 := time.Now()
		if err := r.start(v); err != nil {
			return nil, err
		}
		for {
			h, err := v.c.healthz()
			if err == nil && h.Height >= ch.Height {
				break
			}
			if time.Since(t0) > 30*time.Second {
				return nil, fmt.Errorf("p%d did not return to height %d", v.id, ch.Height)
			}
			time.Sleep(2 * time.Millisecond)
		}
		out = append(out, time.Since(t0).Seconds())
		var b struct {
			ID string `json:"id"`
		}
		if err := v.c.getJSON("blocks", fmt.Sprintf("/v1/blocks/%d", ch.Height-1), &b); err != nil || b.ID != ch.HeadID {
			r.res.fail("p%d reopened with block %s at height %d, want %s (%v)", v.id, b.ID, ch.Height, ch.HeadID, err)
		}
	}
	return out, nil
}

// checkConverged compares every validator's block id at the final
// common height.
func (r *clusterRun) checkConverged() error {
	minH := uint64(0)
	for i, v := range r.vals {
		h, err := v.c.healthz()
		if err != nil {
			return err
		}
		if i == 0 || h.Height < minH {
			minH = h.Height
		}
	}
	var first string
	for i, v := range r.vals {
		var b struct {
			ID string `json:"id"`
		}
		if err := v.c.getJSON("blocks", fmt.Sprintf("/v1/blocks/%d", minH-1), &b); err != nil {
			return err
		}
		if i == 0 {
			first = b.ID
		} else if b.ID != first {
			return fmt.Errorf("p%d has block %s at height %d, p0 has %s", i, b.ID, minH, first)
		}
	}
	return nil
}
