// Package trustnews benchmarks: one testing.B benchmark per experiment in
// DESIGN.md's index (E1-E12). Each wraps the corresponding runner in
// internal/experiments at a bench-friendly size; `go run ./cmd/benchrunner`
// regenerates the full tables.
package trustnews

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/platform"
)

func BenchmarkE1PlatformPipeline(b *testing.B) {
	cfg := experiments.DefaultE1()
	cfg.Items, cfg.Voters = 10, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2EcosystemEconomy(b *testing.B) {
	cfg := experiments.DefaultE2()
	cfg.Epochs, cfg.ItemsPerEpoch = 5, 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ProcessSupplyChain(b *testing.B) {
	cfg := experiments.DefaultE3()
	cfg.Assets = 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4NewsSupplyChain(b *testing.B) {
	cfg := experiments.E4Config{ItemCounts: []int{100, 1000, 10000}, Seed: 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5RankingAccuracy(b *testing.B) {
	cfg := experiments.DefaultE5()
	cfg.Facts, cfg.WarmupItems, cfg.EvalItems, cfg.Voters = 30, 16, 30, 12
	cfg.BiasedFracs = []float64{0, 0.45}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Accountability(b *testing.B) {
	cfg := experiments.E6Config{Depths: []int{4, 16}, Chains: 25, Seed: 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7Containment(b *testing.B) {
	cfg := experiments.DefaultE7()
	cfg.Net.Users, cfg.Net.Bots, cfg.Net.Cyborgs = 1200, 80, 40
	cfg.Runs = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8ExpertDiscovery(b *testing.B) {
	cfg := experiments.DefaultE8()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9FactDBGrowth(b *testing.B) {
	cfg := experiments.DefaultE9()
	cfg.Items, cfg.Voters = 30, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10ConsensusScalability(b *testing.B) {
	cfg := experiments.DefaultE10()
	cfg.ValidatorCounts = []int{4, 8}
	cfg.Blocks = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE10Consensus(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11TextDetection(b *testing.B) {
	cfg := experiments.DefaultE11()
	cfg.Factual, cfg.Fake = 400, 400
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12MediaDetection(b *testing.B) {
	cfg := experiments.DefaultE12()
	cfg.Samples = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13OutbreakPrediction(b *testing.B) {
	cfg := experiments.DefaultE13()
	cfg.Base.CascadesPerClass = 40
	cfg.Windows = []int{2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE13(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14PersonalizedIntervention(b *testing.B) {
	cfg := experiments.DefaultE14()
	cfg.Net.Users, cfg.Net.Bots, cfg.Net.Cyborgs = 1200, 80, 40
	cfg.Budgets = []int{60}
	cfg.Runs = 5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE14(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5WeightsAblation(b *testing.B) {
	cfg := experiments.DefaultE5Weights()
	cfg.Base.Facts, cfg.Base.WarmupItems, cfg.Base.EvalItems = 30, 16, 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE5Weights(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15LightClient(b *testing.B) {
	cfg := experiments.E15Config{Heights: []int{100}, TxsPerBlock: 20}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE15(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE16OffChainStorage(b *testing.B) {
	cfg := experiments.DefaultE16()
	cfg.Articles, cfg.Syndicated, cfg.Sentences = 6, 3, 30
	cfg.LossRates = []float64{0, 0.05}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE16(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17TelemetryOverhead(b *testing.B) {
	cfg := experiments.DefaultE17()
	cfg.Txs, cfg.Blobs, cfg.Reads, cfg.Rounds = 256, 8, 200, 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE17Telemetry(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18BlockVerification(b *testing.B) {
	cfg := experiments.DefaultE18()
	cfg.TxsPerBlock, cfg.Reps, cfg.Rounds, cfg.CommitBlocks = 256, 1, 1, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE18Verify(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Batching(b *testing.B) {
	cfg := experiments.E10cConfig{BatchSizes: []int{64}, TotalTxs: 512, Seed: 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE10Batching(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Durable reopen: full replay vs checkpoint restore (EXPERIMENTS.md E15b).
// ---------------------------------------------------------------------------

const reopenChainBlocks = 5000

var (
	reopenChainOnce sync.Once
	reopenChainDir  string
	reopenChainErr  error
)

// reopenChain lazily builds one durable 5000-block chain (one mint tx per
// block) with a checkpoint at the head, shared by both reopen benchmarks.
func reopenChain(b *testing.B) string {
	b.Helper()
	reopenChainOnce.Do(func() {
		reopenChainDir, reopenChainErr = os.MkdirTemp("", "trustnews-reopen-bench-")
		if reopenChainErr != nil {
			return
		}
		p, closeFn, err := platform.Open(reopenChainDir, platform.DefaultConfig())
		if err != nil {
			reopenChainErr = err
			return
		}
		payer := p.NewActor("bench-payer")
		for i := 0; i < reopenChainBlocks; i++ {
			if err := p.MintTo(payer.Address(), 1); err != nil {
				reopenChainErr = err
				return
			}
		}
		if err := p.WriteCheckpoint(); err != nil {
			reopenChainErr = err
			return
		}
		reopenChainErr = closeFn()
	})
	if reopenChainErr != nil {
		b.Fatal(reopenChainErr)
	}
	return reopenChainDir
}

// BenchmarkOpenReplay reopens the 5000-block chain the original way:
// decode, validate and re-execute every block (checkpoint moved aside).
func BenchmarkOpenReplay(b *testing.B) {
	dir := reopenChain(b)
	ckpt := filepath.Join(dir, "checkpoint.ckpt")
	aside := filepath.Join(dir, "checkpoint.aside")
	if err := os.Rename(ckpt, aside); err != nil {
		b.Fatal(err)
	}
	defer os.Rename(aside, ckpt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, closeFn, err := platform.Open(dir, platform.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if p.Chain().Height() != reopenChainBlocks {
			b.Fatalf("height %d", p.Chain().Height())
		}
		closeFn()
	}
}

// BenchmarkOpenCheckpoint reopens the same chain from the checkpoint:
// restore subscriber snapshots, verify state roots, replay only the tail.
func BenchmarkOpenCheckpoint(b *testing.B) {
	dir := reopenChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, closeFn, err := platform.Open(dir, platform.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if p.CheckpointHeight() != reopenChainBlocks {
			b.Fatalf("checkpoint restore not taken (height %d)", p.CheckpointHeight())
		}
		closeFn()
	}
}

func BenchmarkE19ChaosSweep(b *testing.B) {
	cfg := experiments.DefaultE19()
	cfg.Window = 600 * time.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE19Chaos(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE20WireTransport(b *testing.B) {
	cfg := experiments.DefaultE20()
	cfg.Txs, cfg.Senders = 120, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE20Wire(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE21OverloadSweep(b *testing.B) {
	cfg := experiments.DefaultE21()
	cfg.Rates = []float64{150, 1500}
	cfg.Duration = 1500 * time.Millisecond
	cfg.Users, cfg.SeedArticles = 24, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE21(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE22IngestSearch(b *testing.B) {
	cfg := experiments.DefaultE22()
	cfg.DocCounts = []int{1000, 4000}
	cfg.HotDocs, cfg.HotQueries = 2000, 1000
	cfg.Shards = []int{1, 16}
	cfg.CommitTxs, cfg.IngestArticles = 200, 60
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE22(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
