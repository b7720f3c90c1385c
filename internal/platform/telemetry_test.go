package platform

import (
	"strings"
	"testing"

	"repro/internal/aidetect"
	"repro/internal/corpus"
	"repro/internal/telemetry"
)

// Regression: newDurable replaces the mempool New built after binding the
// reopened chain, and the replacement must be re-instrumented — otherwise
// durable nodes serve dead mempool series while in-memory nodes count.
func TestDurableNodeMempoolMetricsLive(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, closeFn, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()

	a := p.NewActor("author")
	if err := a.PublishNews("m1", corpus.TopicPolitics, "short durable body", nil, ""); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	cfg.Telemetry.WritePrometheus(&sb)
	body := sb.String()
	for _, want := range []string{
		"trustnews_mempool_admitted_total 1",
		"trustnews_platform_commits_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("durable node metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestTrainClassifierTraced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.New()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := corpus.NewGenerator(1).Generate(20, 20).Statements
	if err := p.TrainClassifier(aidetect.NewNaiveBayes(), train); err != nil {
		t.Fatal(err)
	}
	for _, sp := range cfg.Telemetry.Tracer().Spans() {
		if sp.Name != "platform.train_classifier" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "statements" && a.Value == "40" {
				return
			}
		}
		t.Fatalf("train span attrs %v lack statements=40", sp.Attrs)
	}
	t.Fatal("no platform.train_classifier span")
}
