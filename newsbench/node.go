package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// node is a standalone trustnewsd node run inside the benchmark process.
// It is assembled from the same public constructors and settings that
// cmd/trustnewsd uses without -node-id: a durable platform.Open with
// telemetry and admission.DefaultConfig, httpapi.New(p, true), the
// ingest pipeline with its WAL, and the 100 ms CommitAll ticker.
type node struct {
	dir     string
	p       *platform.Platform
	closeFn func() error
	api     *httpapi.Server
	pl      *ingest.Pipeline
	srv     *http.Server
	url     string
	stop    context.CancelFunc
	loops   sync.WaitGroup
	serveCh chan error

	// onCommit, when set before start, times each ticker CommitAll.
	onCommit func(start, end time.Time)
}

// nodeConfig is the daemon's standalone configuration.
func nodeConfig() platform.Config {
	cfg := platform.DefaultConfig()
	cfg.Telemetry = telemetry.New()
	cfg.Admission = admission.DefaultConfig()
	return cfg
}

// openNode opens (or reopens) the durable platform at dir and trains the
// classifier the way the daemon does at boot.
func openNode(dir string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, closeFn, err := platform.Open(dir, nodeConfig())
	if err != nil {
		return nil, err
	}
	p.SetClock(time.Now)
	gen := corpus.NewGenerator(1)
	if err := p.TrainClassifier(aidetect.NewLogisticRegression(), gen.Generate(500, 500).Statements); err != nil {
		closeFn()
		return nil, err
	}
	return &node{dir: dir, p: p, closeFn: closeFn}, nil
}

// preload stores the article bodies off-chain and submits and commits
// the signed transactions in full blocks, straight through the platform
// (not timed as client traffic).
func (n *node) preload(txs [][]byte, arts []*article) error {
	for _, a := range arts {
		if a.Inline {
			continue
		}
		if _, err := n.p.Blobs().Put(a.Body); err != nil {
			return fmt.Errorf("preload blob %s: %w", a.ID, err)
		}
	}
	for i, raw := range txs {
		tx, err := ledger.DecodeTx(raw)
		if err != nil {
			return err
		}
		if err := n.p.Submit(tx); err != nil {
			return fmt.Errorf("preload tx %d: %w", i, err)
		}
		if (i+1)%platform.DefaultConfig().MaxTxsPerBlock == 0 {
			if err := n.p.CommitAll(); err != nil {
				return err
			}
		}
	}
	if err := n.p.CommitAll(); err != nil {
		return err
	}
	// Let the async search indexer catch up so the window starts from
	// a quiet node.
	for n.p.SearchIndexerStats().Pending > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// serve starts the ingest pipeline, the commit ticker and the HTTP API
// on a loopback port. wrap, when non-nil, wraps the API handler.
func (n *node) serve(wrap func(http.Handler) http.Handler) error {
	n.api = httpapi.New(n.p, true)
	wal, err := store.OpenFileLog(filepath.Join(n.dir, "ingest.wal"))
	if err != nil {
		return fmt.Errorf("ingest WAL: %w", err)
	}
	q, err := ingest.NewQueue(wal, ingest.QueueConfig{Capacity: 4096})
	if err != nil {
		return fmt.Errorf("ingest queue: %w", err)
	}
	n.pl = ingest.NewPipeline(n.p, q, ingest.PipelineConfig{Workers: 4})
	n.pl.Instrument(n.p.Telemetry())
	n.pl.Start()
	n.api.SetIngest(n.pl)

	ctx, cancel := context.WithCancel(context.Background())
	n.stop = cancel
	n.loops.Add(1)
	go n.commitLoop(ctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = n.api
	if wrap != nil {
		h = wrap(h)
	}
	n.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	n.url = "http://" + ln.Addr().String()
	n.serveCh = make(chan error, 1)
	go func() { n.serveCh <- n.srv.Serve(ln) }()
	return nil
}

// commitLoop is the daemon's standalone commit ticker.
func (n *node) commitLoop(ctx context.Context) {
	defer n.loops.Done()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			start := time.Now()
			if err := n.p.CommitAll(); err != nil {
				return
			}
			if n.onCommit != nil {
				n.onCommit(start, time.Now())
			}
		}
	}
}

// close shuts the node down without a final checkpoint, so a reopen
// replays the WAL tail written since the setup checkpoint.
func (n *node) close() error {
	var errs []error
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, n.srv.Shutdown(ctx))
		cancel()
		if err := <-n.serveCh; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if n.stop != nil {
		n.stop()
		n.loops.Wait()
	}
	if n.pl != nil {
		n.pl.Stop()
		errs = append(errs, n.pl.Queue().Close())
	}
	errs = append(errs, n.closeFn())
	return errors.Join(errs...)
}
