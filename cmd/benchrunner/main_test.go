package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRunRejectsUnknownIDs: an -only id that names no experiment fails
// the run before anything executes, names every unknown id, and writes
// no JSON dump.
func TestRunRejectsUnknownIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	err := run(true, "E8,e99,E10B", path)
	if err == nil {
		t.Fatal("run accepted unknown ids")
	}
	for _, id := range []string{"E99", "E10B"} {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not name %s", err, id)
		}
	}
	if strings.Contains(err.Error(), "E8") {
		t.Fatalf("error %q names the known id E8", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("json dump written despite the error (stat: %v)", err)
	}
}

// TestSelectRunnersByFamily: a bare family id selects its variants.
func TestSelectRunnersByFamily(t *testing.T) {
	got, err := selectRunners(allRunners(), "e10, E5W")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range got {
		ids = append(ids, r.id)
	}
	if strings.Join(ids, ",") != "E5W,E10A,E10C" {
		t.Fatalf("selected %v", ids)
	}
}

// TestRunStampsEnvironment: the JSON dump records the machine it ran on
// next to the tables.
func TestRunStampsEnvironment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(true, "E8", path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump jsonDump
	if err := json.Unmarshal(blob, &dump); err != nil {
		t.Fatal(err)
	}
	if !dump.Quick || len(dump.Results) != 1 || dump.Results[0].ID != "E8" {
		t.Fatalf("dump quick=%v results=%+v", dump.Quick, dump.Results)
	}
	env := dump.Env
	if env.NumCPU != runtime.NumCPU() || env.GOMAXPROCS != runtime.GOMAXPROCS(0) || env.GoVersion != runtime.Version() {
		t.Fatalf("env %+v", env)
	}
}
