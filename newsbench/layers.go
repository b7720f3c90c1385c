package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blobstore"
	"repro/internal/platform"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// subscribers are the commit-bus subscribers a node registers, in the
// order platform.New registers them.
var subscribers = []string{
	"contract-state", "receipts", "factdb-index", "supplychain-graph",
	"expert-miner", "rank-penalties", "blob-refs", "search-index",
}

// routes are the API routes the workloads use.
var routes = []string{"tx", "upload", "search", "blob"}

// declared is one metric as BENCHMARK.json lists it.
type declared struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerMetrics is every per-layer metric, in report order. Each workload
// reports all of them; a layer a workload does not reach reads 0.
func layerMetrics() []declared {
	var out []declared
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, declared{n, unit, better})
		}
	}
	for _, rt := range routes {
		add("ms", "lower", "httpapi.handler_ms_p50."+rt, "httpapi.handler_ms_p99."+rt)
	}
	add("ms", "lower", "httpapi.client_overhead_ms_p50")
	add("frac", "lower", "admission.shed_frac")
	add("ms", "lower", "admission.queue_delay_ms_mean")
	add("us", "lower", "ledger.verify_tx_us_mean")
	add("frac", "higher", "ledger.sigcache_hit_frac")
	add("ms", "lower", "ledger.validate_block_ms_mean")
	add("count", "higher", "ledger.txs_per_block_mean")
	add("count", "lower", "ledger.mempool_occupancy_max")
	add("ms", "lower", "ledger.submit_ack_ms_p95")
	add("ms", "lower", "platform.commit_ms_p50", "platform.commit_ms_p99", "platform.commit_self_ms_p50")
	add("frac", "lower", "platform.commit_busy_frac")
	add("ms", "lower", "contract.state_root_ms_p50", "contract.execute_ms_p50")
	add("count", "lower", "contract.state_keys")
	add("frac", "lower", "contract.receipt_fail_frac")
	add("ms", "lower", "store.checkpoint_ms")
	add("count", "lower", "store.replay_blocks")
	add("B/tx", "lower", "store.wal_bytes_per_tx")
	add("ms", "lower", "commitbus.publish_ms_p50")
	for _, sub := range subscribers {
		add("ms", "lower", "commitbus.handle_ms_total."+sub)
	}
	add("count", "lower", "commitbus.errors")
	add("us", "lower", "search.query_us_p50", "search.query_us_p99")
	add("ms", "lower", "search.index_batch_ms_mean")
	add("count", "lower", "search.indexer_lag_docs_max")
	add("count", "higher", "search.docs")
	add("us", "lower", "blobstore.get_us_p99", "blobstore.put_us_p50")
	add("count", "lower", "consensus.rounds_per_height")
	add("ms", "lower", "consensus.height_ms_mean")
	add("count", "lower", "consensus.votes_rejected")
	add("B/tx", "lower", "transport.bytes_out_per_tx")
	add("1/tx", "lower", "transport.sends_per_tx")
	add("count", "lower", "transport.send_errors", "transport.reconnects")
	add("ms", "lower", "bench.gen_late_p99_ms")
	return out
}

// completeLayers orders the per-layer metrics as declared, adds a zero
// for each layer the workload does not reach, and rejects a metric that
// is undeclared, repeated or in another unit.
func (r *result) completeLayers() error {
	got := map[string]metric{}
	for _, m := range r.PerLayer {
		if _, dup := got[m.Name]; dup {
			return fmt.Errorf("per-layer metric %s reported twice", m.Name)
		}
		got[m.Name] = m
	}
	var out []metric
	for _, d := range layerMetrics() {
		m, ok := got[d.Name]
		if !ok {
			m = metric{Name: d.Name, Unit: d.Unit}
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("per-layer metric %s in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		delete(got, d.Name)
		out = append(out, m)
	}
	for n := range got {
		return fmt.Errorf("per-layer metric %s is not declared", n)
	}
	r.PerLayer = out
	return nil
}

// nodeLayers adds the per-layer metrics read from the /v1/metrics change
// over the run: d is the node that takes the client traffic, wire the
// sum over every node (for the transport layer), txs the transactions
// committed meanwhile.
func (r *result) nodeLayers(d, wire prom, txs float64) {
	shed := d.sumOf("trustnews_admission_shed_total")
	r.layer("admission.shed_frac", ratio(shed, shed+d.sumOf("trustnews_admission_accepted_total")), "frac", int(shed))
	r.layer("admission.queue_delay_ms_mean", d.histMean("trustnews_admission_queue_delay_seconds", 1e3), "ms", int(d.sumOf("trustnews_admission_queue_delay_seconds_count")))
	r.layer("ledger.verify_tx_us_mean", d.histMean("trustnews_mempool_verify_seconds", 1e6), "us", int(d.sumOf("trustnews_mempool_verify_seconds_count")))
	hit, miss := d.sumOf("trustnews_verify_sigcache_total", `outcome="hit"`), d.sumOf("trustnews_verify_sigcache_total", `outcome="miss"`)
	r.layer("ledger.sigcache_hit_frac", ratio(hit, hit+miss), "frac", int(hit+miss))
	r.layer("ledger.validate_block_ms_mean", d.histMean("trustnews_verify_block_seconds", 1e3), "ms", int(d.sumOf("trustnews_verify_block_seconds_count")))
	commits := d.sumOf("trustnews_platform_commits_total")
	r.layer("ledger.txs_per_block_mean", ratio(d.sumOf("trustnews_platform_txs_committed_total"), commits), "count", int(commits))
	for _, s := range subscribers {
		r.layer("commitbus.handle_ms_total."+s, 1e3*d.sumOf("trustnews_commitbus_handle_seconds_sum", `subscriber="`+s+`"`), "ms", int(d.sumOf("trustnews_commitbus_handle_seconds_count", `subscriber="`+s+`"`)))
	}
	r.layer("commitbus.errors", d.sumOf("trustnews_commitbus_errors_total"), "count", 1)
	r.layer("search.index_batch_ms_mean", d.histMean("trustnews_search_index_batch_seconds", 1e3), "ms", int(d.sumOf("trustnews_search_index_batch_seconds_count")))
	heights := d.sumOf("trustnews_consensus_commits_total")
	r.layer("consensus.rounds_per_height", ratio(d.sumOf("trustnews_consensus_rounds_total"), heights), "count", int(heights))
	r.layer("consensus.height_ms_mean", d.histMean("trustnews_consensus_height_seconds", 1e3), "ms", int(d.sumOf("trustnews_consensus_height_seconds_count")))
	r.layer("consensus.votes_rejected", d.sumOf("trustnews_consensus_votes_rejected_total"), "count", 1)
	r.layer("transport.bytes_out_per_tx", ratio(wire.sumOf("trustnews_transport_bytes_out_total"), txs), "B/tx", int(txs))
	r.layer("transport.sends_per_tx", ratio(wire.sumOf("trustnews_transport_sends_total"), txs), "1/tx", int(txs))
	r.layer("transport.send_errors", wire.sumOf("trustnews_transport_send_errors_total"), "count", 1)
	r.layer("transport.reconnects", wire.sumOf("trustnews_transport_reconnects_total"), "count", 1)
}

// commitSpans splits the node's commit spans that started in the window
// into whole-commit, execute and publish durations (ms), and the
// commit's self time (commit minus execute minus publish).
type commitSpans struct {
	commit, exec, pub, self []float64
	starts                  []time.Time
	ends                    []time.Time
}

func splitCommits(spans []telemetry.SpanData, root string, from, to time.Time) commitSpans {
	var cs commitSpans
	children := map[telemetry.SpanID][]telemetry.SpanData{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Name != root || s.Start.Before(from) || !s.Start.Before(to) {
			continue
		}
		d := float64(s.DurationNS) / 1e6
		self := d
		for _, c := range children[s.ID] {
			cd := float64(c.DurationNS) / 1e6
			self -= cd
			switch c.Name {
			case "engine.execute":
				cs.exec = append(cs.exec, cd)
			case "commitbus.publish":
				cs.pub = append(cs.pub, cd)
			}
		}
		cs.commit = append(cs.commit, d)
		cs.self = append(cs.self, self)
		cs.starts = append(cs.starts, s.Start)
		cs.ends = append(cs.ends, s.Start.Add(time.Duration(s.DurationNS)))
	}
	return cs
}

// addCommitLayers reports the platform and contract layer times.
func (r *result) addCommitLayers(cs commitSpans, window time.Duration, selfKnown bool) {
	r.layer("platform.commit_ms_p50", quantile(cs.commit, 0.5), "ms", len(cs.commit))
	r.layer("platform.commit_ms_p99", quantile(cs.commit, 0.99), "ms", len(cs.commit))
	if selfKnown {
		r.layer("platform.commit_self_ms_p50", quantile(cs.self, 0.5), "ms", len(cs.self))
		r.layer("contract.execute_ms_p50", quantile(cs.exec, 0.5), "ms", len(cs.exec))
		r.layer("commitbus.publish_ms_p50", quantile(cs.pub, 0.5), "ms", len(cs.pub))
	}
	r.layer("platform.commit_busy_frac", sum(cs.commit)/ms(window), "frac", len(cs.commit))
}

// layers computes the standalone per-layer metrics and self times.
func (r *standaloneRun) layers(samples []*sample, spans []telemetry.SpanData, d prom, maxes map[string]float64,
	wStart, wEnd, cStart, cEnd time.Time, windowHas map[string]bool, last *reopened) {
	res := r.res
	window := wEnd.Sub(wStart)
	routeKind := map[string]string{"tx": "", "upload": opPublish, "search": opSearch, "blob": opBlobRead}
	handlers := map[uint64]*span{}
	for _, rt := range routes {
		from, to := wStart, wEnd
		if k := routeKind[rt]; k != "" && !windowHas[k] {
			from, to = cStart, cEnd
		}
		var xs []float64
		for _, sp := range r.tr.byName("httpapi."+rt, from, to) {
			xs = append(xs, ms(sp.dur()))
			handlers[sp.Parent] = sp
		}
		res.layer("httpapi.handler_ms_p50."+rt, quantile(xs, 0.5), "ms", len(xs))
		res.layer("httpapi.handler_ms_p99."+rt, quantile(xs, 0.99), "ms", len(xs))
	}
	var overhead []float64
	var clientTotal, handlerTotal float64
	var txHandlers []*span
	for _, rt := range routes {
		for _, sp := range r.tr.byName("client."+rt, wStart, wEnd) {
			if h, ok := handlers[sp.ID]; ok {
				overhead = append(overhead, ms(sp.dur()-h.dur()))
				clientTotal += ms(sp.dur())
				handlerTotal += ms(h.dur())
				if rt == "tx" {
					txHandlers = append(txHandlers, h)
				}
			}
		}
	}
	res.layer("httpapi.client_overhead_ms_p50", quantile(overhead, 0.5), "ms", len(overhead))

	txs := d.sumOf("trustnews_platform_txs_committed_total")
	res.nodeLayers(d, d, txs)
	res.layer("ledger.mempool_occupancy_max", maxes["mempool"], "count", 1)
	res.layer("search.indexer_lag_docs_max", maxes["lag"], "count", 1)

	cs := splitCommits(spans, "platform.commit", wStart, wEnd)
	res.addCommitLayers(cs, window, true)
	notOK, writes := 0, 0
	for _, s := range samples {
		if s.op.write() {
			writes++
			if s.notOK {
				notOK++
			}
		}
	}
	res.layer("contract.receipt_fail_frac", ratio(float64(notOK), float64(writes)), "frac", writes)

	var queries, cids []string
	for _, s := range samples {
		switch {
		case s.op.Kind == opSearch:
			queries = append(queries, s.op.Query)
		case s.op.Kind == opBlobRead:
			cids = append(cids, s.op.Art.CID)
		case s.op.Kind == opPublish && s.ok():
			if !windowHas[opSearch] {
				queries = append(queries, s.op.Art.Marker)
			}
			if !windowHas[opBlobRead] {
				cids = append(cids, s.op.Art.CID)
			}
		}
	}
	res.directLayers(last.p, queries, cids, r.rc.seed, r.in.Articles)

	// Self time of each layer over the window: a span's duration minus
	// the part its child layer's spans cover.
	var inHandler float64
	for i, st := range cs.starts {
		for _, h := range txHandlers {
			if !st.Before(h.Start) && !cs.ends[i].After(h.End) {
				inHandler += cs.commit[i]
				break
			}
		}
	}
	res.SelfTime = []metric{
		{"bench.client", clientTotal - handlerTotal, "ms", len(overhead)},
		{"httpapi.handler", handlerTotal - inHandler, "ms", len(overhead)},
		{"platform.commit", sum(cs.self), "ms", len(cs.self)},
		{"contract.execute", sum(cs.exec), "ms", len(cs.exec)},
		{"commitbus.publish", sum(cs.pub), "ms", len(cs.pub)},
	}
	sort.SliceStable(res.SelfTime, func(i, j int) bool { return res.SelfTime[i].Value > res.SelfTime[j].Value })
}

// directLayers times calls straight into the layers of a node reopened
// from a run's data directory, which holds the state the run ended with:
// Engine.StateRoot, Platform.SearchPage over the run's queries,
// Blobs().Get over the run's blob reads, and Blobs().Put of 64 fresh
// bodies.
func (r *result) directLayers(p *platform.Platform, queries, cids []string, seed int64, arts []*article) {
	var roots []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := p.Engine().StateRoot(); err != nil {
			r.fail("state root: %v", err)
		}
		roots = append(roots, ms(time.Since(t0)))
	}
	r.layer("contract.state_root_ms_p50", median(roots), "ms", len(roots))
	keys, _ := p.Engine().State().Keys("")
	r.layer("contract.state_keys", float64(len(keys)), "count", 1)
	r.layer("search.docs", float64(p.SearchIndex().Docs()), "count", 1)
	var qus, gus, pus []float64
	for _, q := range queries {
		t0 := time.Now()
		p.SearchPage(q, search.RankBM25, 0, 10)
		qus = append(qus, us(time.Since(t0)))
	}
	r.layer("search.query_us_p50", quantile(qus, 0.5), "us", len(qus))
	r.layer("search.query_us_p99", quantile(qus, 0.99), "us", len(qus))
	for _, c := range cids {
		cid, err := blobstore.ParseCID(c)
		if err != nil {
			r.fail("cid %s: %v", c, err)
			continue
		}
		t0 := time.Now()
		if _, err := p.Blobs().Get(cid); err != nil {
			r.fail("blobstore get %s: %v", c, err)
		}
		gus = append(gus, us(time.Since(t0)))
	}
	r.layer("blobstore.get_us_p99", quantile(gus, 0.99), "us", len(gus))
	for i := 0; i < 64; i++ {
		body := []byte(fmt.Sprintf("newsbench put probe %d of seed %d: %s", i, seed, arts[i%len(arts)].Body))
		t0 := time.Now()
		if _, err := p.Blobs().Put(body); err != nil {
			r.fail("blobstore put: %v", err)
		}
		pus = append(pus, us(time.Since(t0)))
	}
	r.layer("blobstore.put_us_p50", quantile(pus, 0.5), "us", len(pus))
}
