// Command benchrunner regenerates every experiment table in DESIGN.md's
// index and prints them. Run with -quick for reduced sizes or -only E5 to
// run a single experiment; an -only id that names no experiment is an
// error. With -json the same tables are also written as machine-readable
// JSON (e.g. BENCH_3.json), stamped with the CPU count, GOMAXPROCS, Go
// version and, when the binary carries it, the VCS revision it was built
// from, so the perf trajectory can be tracked per change without parsing
// the pretty tables.
//
//	go run ./cmd/benchrunner                     # full sweep (a few minutes)
//	go run ./cmd/benchrunner -quick              # reduced sizes (~30s)
//	go run ./cmd/benchrunner -only E7            # one experiment
//	go run ./cmd/benchrunner -json BENCH_3.json  # tables + JSON dump
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced experiment sizes")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E5,E7)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file (e.g. BENCH_3.json)")
	flag.Parse()
	if err := run(*quick, *only, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// jsonResult is one experiment table in the machine-readable dump.
type jsonResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim,omitempty"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Seconds float64    `json:"seconds"`
}

// jsonDump is the top-level envelope of the -json file.
type jsonDump struct {
	Quick   bool         `json:"quick"`
	Env     jsonEnv      `json:"env"`
	Results []jsonResult `json:"results"`
}

// jsonEnv records the machine and build the tables were measured on, so
// timings from different dumps can be told apart.
type jsonEnv struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Revision is the VCS commit the binary was built from; empty when
	// the build carries none (e.g. go run outside a checkout).
	Revision string `json:"revision,omitempty"`
}

func currentEnv() jsonEnv {
	env := jsonEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				env.Revision = kv.Value
			}
		}
	}
	return env
}

type runner struct {
	id string
	fn func(quick bool) (*experiments.Table, error)
}

func run(quick bool, only, jsonPath string) error {
	selected, err := selectRunners(allRunners(), only)
	if err != nil {
		return err
	}
	dump := jsonDump{Quick: quick, Env: currentEnv(), Results: []jsonResult{}}
	for _, r := range selected {
		start := time.Now()
		tbl, err := r.fn(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		elapsed := time.Since(start)
		tbl.Render(os.Stdout)
		fmt.Printf("(%s completed in %v)\n", r.id, elapsed.Round(time.Millisecond))
		dump.Results = append(dump.Results, jsonResult{
			ID:      tbl.ID,
			Title:   tbl.Title,
			Claim:   tbl.Claim,
			Header:  tbl.Header,
			Rows:    tbl.Rows,
			Seconds: elapsed.Seconds(),
		})
	}
	if jsonPath != "" {
		blob, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal json dump: %w", err)
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", jsonPath, err)
		}
		fmt.Printf("wrote %s (%d experiments)\n", jsonPath, len(dump.Results))
	}
	return nil
}

// selectRunners keeps the runners named by the comma-separated only
// list (all of them when it is empty). An id matches a runner by its
// exact id or by its family without the variant suffix ("E10" selects
// E10A and E10C). An id that matches nothing is an error, so a typo or
// a removed experiment never yields an empty run that looks like success.
func selectRunners(runners []runner, only string) ([]runner, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return runners, nil
	}
	matched := map[string]bool{}
	var out []runner
	for _, r := range runners {
		family := strings.TrimRight(r.id, "ABCW")
		if want[r.id] || want[family] {
			matched[r.id], matched[family] = true, true
			out = append(out, r)
		}
	}
	var unknown []string
	for id := range want {
		if !matched[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment ids: %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// allRunners lists every experiment in run order.
func allRunners() []runner {
	return []runner{
		{"E1", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE1()
			if q {
				cfg.Items = 10
			}
			return experiments.RunE1(cfg)
		}},
		{"E2", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE2()
			if q {
				cfg.Epochs = 5
			}
			return experiments.RunE2(cfg)
		}},
		{"E3", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE3()
			if q {
				cfg.Assets = 200
			}
			return experiments.RunE3(cfg)
		}},
		{"E4", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE4()
			if q {
				cfg.ItemCounts = []int{100, 1000, 10000}
			}
			return experiments.RunE4(cfg)
		}},
		{"E5", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE5()
			if q {
				cfg.Facts, cfg.WarmupItems, cfg.EvalItems, cfg.Voters = 30, 16, 30, 12
			}
			return experiments.RunE5(cfg)
		}},
		{"E5W", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE5Weights()
			if q {
				// Keep the full 20-voter crowd: the bias pressure at 45%
				// depends on the bloc being a near-majority.
				cfg.Base.Facts, cfg.Base.WarmupItems, cfg.Base.EvalItems = 30, 16, 30
			}
			return experiments.RunE5Weights(cfg)
		}},
		{"E6", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE6()
			if q {
				cfg.Chains = 25
			}
			return experiments.RunE6(cfg)
		}},
		{"E7", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE7()
			if q {
				cfg.Net.Users, cfg.Net.Bots, cfg.Net.Cyborgs = 1200, 80, 40
				cfg.Runs = 6
			}
			return experiments.RunE7(cfg)
		}},
		{"E8", func(q bool) (*experiments.Table, error) {
			return experiments.RunE8(experiments.DefaultE8())
		}},
		{"E9", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE9()
			if q {
				cfg.Items = 30
			}
			return experiments.RunE9(cfg)
		}},
		{"E10A", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE10()
			if q {
				cfg.ValidatorCounts = []int{4, 8, 16}
				cfg.Blocks = 3
			}
			return experiments.RunE10Consensus(cfg)
		}},
		{"E10C", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE10c()
			if q {
				cfg.TotalTxs = 512
			}
			return experiments.RunE10Batching(cfg)
		}},
		{"E11", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE11()
			if q {
				cfg.Factual, cfg.Fake = 400, 400
			}
			return experiments.RunE11(cfg)
		}},
		{"E12", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE12()
			if q {
				cfg.Samples = 25
			}
			return experiments.RunE12(cfg)
		}},
		{"E13", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE13()
			if q {
				cfg.Base.CascadesPerClass = 50
			}
			return experiments.RunE13(cfg)
		}},
		{"E14", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE14()
			if q {
				cfg.Runs = 8
				cfg.Budgets = []int{60}
			}
			return experiments.RunE14(cfg)
		}},
		{"E15", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE15()
			if q {
				cfg.Heights = []int{10, 100}
			}
			return experiments.RunE15(cfg)
		}},
		{"E16", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE16()
			if q {
				cfg.Articles, cfg.Syndicated, cfg.Sentences = 6, 3, 30
				cfg.LossRates = []float64{0, 0.05}
			}
			return experiments.RunE16(cfg)
		}},
		{"E17", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE17()
			if q {
				cfg.Txs, cfg.Blobs, cfg.Reads, cfg.Rounds = 512, 16, 400, 2
			}
			return experiments.RunE17Telemetry(cfg)
		}},
		{"E18", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE18()
			if q {
				cfg.TxsPerBlock, cfg.Reps, cfg.Rounds, cfg.CommitBlocks = 256, 2, 2, 4
			}
			return experiments.RunE18Verify(cfg)
		}},
		{"E19", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE19()
			if q {
				cfg.Window = 600 * time.Millisecond
			}
			return experiments.RunE19Chaos(cfg)
		}},
		{"E20", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE20()
			if q {
				cfg.Txs, cfg.Senders = 120, 8
			}
			return experiments.RunE20Wire(cfg)
		}},
		{"E21", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE21()
			if q {
				cfg.Rates = []float64{150, 1500}
				cfg.Duration = 1500 * time.Millisecond
				cfg.Users, cfg.SeedArticles = 24, 8
			}
			return experiments.RunE21(cfg)
		}},
		{"E22", func(q bool) (*experiments.Table, error) {
			cfg := experiments.DefaultE22()
			if q {
				cfg.DocCounts = []int{1000, 4000}
				cfg.HotDocs, cfg.HotQueries = 2000, 1000
				cfg.Shards = []int{1, 16}
				cfg.CommitTxs, cfg.IngestArticles = 1000, 60
			}
			return experiments.RunE22(cfg)
		}},
	}
}
