package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json at the root of
// the tree declares exactly the workloads and metrics this program
// reports, in its units, and that README.md's end-to-end table gives
// each metric the unit, direction and bound BENCHMARK.json gives it.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in the program", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s is not in the program", w.Name)
		}
	}
	var names []string
	for _, m := range cfg.EndToEnd {
		names = append(names, m.Name)
		if want := endToEndUnits[m.Name]; m.Unit != want {
			t.Errorf("%s declared in %s, reported in %s", m.Name, m.Unit, want)
		}
	}
	if !reflect.DeepEqual(names, endToEndNames) {
		t.Errorf("end_to_end names %v, program reports %v", names, endToEndNames)
	}
	if !reflect.DeepEqual(cfg.PerLayer, layerMetrics()) {
		want, _ := json.Marshal(layerMetrics())
		t.Errorf("per_layer differs from the program's; want\n%s", want)
	}
	readme := readmeEndToEnd(t)
	for _, m := range cfg.EndToEnd {
		row, ok := readme[m.Name]
		if !ok {
			t.Errorf("README.md has no end-to-end row for %s", m.Name)
			continue
		}
		bound, err := strconv.ParseFloat(row[2], 64)
		if row[0] != m.Unit || row[1] != m.Better || err != nil || bound != m.Bound {
			t.Errorf("README.md gives %s as %v, BENCHMARK.json as %s %s %v", m.Name, row, m.Unit, m.Better, m.Bound)
		}
		delete(readme, m.Name)
	}
	for n := range readme {
		t.Errorf("README.md lists end-to-end metric %s, BENCHMARK.json does not", n)
	}
}

// readmeEndToEnd reads the unit, direction and bound of each row of
// README.md's end-to-end metrics table.
func readmeEndToEnd(t *testing.T) map[string][3]string {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(raw), "## End-to-end metrics")
	sec, _, _ = strings.Cut(sec, "\n## ")
	out := map[string][3]string{}
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 6 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		out[name] = [3]string{strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3]), strings.TrimSpace(cells[4])}
	}
	return out
}
