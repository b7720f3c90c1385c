// Command newsbench is the repository benchmark: it runs one workload
// against the trusting-news node, checks the node's outputs, and prints
// every end-to-end metric (or, with --trace 1, every per-layer metric)
// with its unit and sample count. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash newsbench/run.sh --workload publish_heavy --seed 1 --seconds 10 --trace 0
//
// See newsbench/README.md for the workloads, metrics and predictions.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its input shape. Window lengths
// are set from --seconds.
var workloads = map[string]shape{
	// Closed loop, 2 clients, writes only, on a 20k-article state:
	// the standalone commit path does nearly all the work.
	"publish_heavy": {
		users: 256, preload: 20_000, clients: 2, perCli: 3_000,
		mix: []weighted{{opPublish, 60}, {opRelay, 15}, {opVote, 25}},
	},
	// Open loop at a fixed rate, read-heavy, on a 5k-article state.
	"read_feed": {
		users: 256, preload: 5_000, offChainPreload: 500, rate: 100, queryLen: [2]int{1, 3},
		mix: []weighted{{opSearch, 55}, {opBlobRead, 35}, {opPublish, 7}, {opVote, 3}},
	},
	// Open loop of writes to one validator of a 4-process TCP cluster.
	"cluster_tcp": {
		users: 256, preload: 64, inline: true, rate: 100,
		mix: []weighted{{opPublish, 70}, {opVote, 30}},
	},
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	setups   int    // set-ups per run; setup_s is their median
	work     string // node data directories (removed at exit)
	out      string // saved results and trace files
	daemon   string // trustnewsd binary (cluster_tcp)
}

func main() {
	var (
		rc      runConfig
		seconds int
		trace   int
		commit  string
	)
	flag.StringVar(&rc.workload, "workload", "", "workload: publish_heavy, read_feed or cluster_tcp")
	flag.Int64Var(&rc.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&rc.out, "out", filepath.Join(".bench_build", "newsbench"), "directory for results, traces and node data")
	flag.StringVar(&rc.daemon, "daemon", filepath.Join(".bench_build", "newsbench", "trustnewsd"), "trustnewsd binary for cluster_tcp")
	flag.StringVar(&commit, "commit", "unknown", "source revision of the program under test")
	flag.Parse()
	s, ok := workloads[rc.workload]
	rc.setups = 3
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: newsbench --workload publish_heavy|read_feed|cluster_tcp --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rc.window = time.Duration(seconds) * time.Second
	s.window = rc.window

	saved := resultPath(rc.out, rc.workload, rc.seed, seconds)
	var untraced *result
	if trace == 1 {
		// The tracing overhead is the traced run minus an untraced run of
		// the same workload, seed and length on the same program; make
		// one if none is saved.
		if untraced = loadResult(saved); untraced == nil || !untraced.sameProgram(programStamp(commit)) {
			res, err := run(rc, s, seconds, commit)
			if err != nil {
				fatal(err)
			}
			untraced = res
		}
		rc.trace = true
	}
	res, err := run(rc, s, seconds, commit)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout, untraced)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "newsbench:", err)
	os.Exit(1)
}

// run performs one run and saves its result (untraced) or spans
// (traced) under the output directory.
func run(rc runConfig, s shape, seconds int, commit string) (*result, error) {
	work, err := os.MkdirTemp(mustMkdir(rc.out), "work-")
	if err != nil {
		return nil, err
	}
	defer func() {
		// Wait for the deletes to reach the disk, so a disk that discards
		// freed blocks does not carry this run's deletes into the next
		// run's window.
		os.RemoveAll(work)
		settleDisk()
	}()
	rc.work = work

	t0 := time.Now()
	in := generate(rc.seed, s)
	res := &result{
		Workload: rc.workload, Seed: rc.seed, Seconds: seconds, Trace: rc.trace, Correct: true,
		Stamp: programStamp(commit),
	}
	res.Stamp["seed"] = strconv.FormatInt(rc.seed, 10)
	res.Stamp["input_digest"] = in.digest()
	res.Stamp["input_gen_s"] = strconv.FormatFloat(time.Since(t0).Seconds(), 'f', 3, 64)
	res.Stamp["setups"] = strconv.Itoa(rc.setups)
	if s.clients > 0 {
		res.Stamp["loop"] = fmt.Sprintf("closed, %d clients", s.clients)
	} else {
		res.Stamp["loop"] = fmt.Sprintf("open, %.0f req/s, at most %d in flight", s.rate, runtime.NumCPU())
	}
	steal0, total0 := cpuTimes()
	var tr *tracer
	if rc.workload == "cluster_tcp" {
		tr, err = runCluster(rc, s, in, res)
	} else {
		tr, err = runStandalone(rc, s, in, res)
	}
	if err != nil {
		return nil, err
	}
	steal1, total1 := cpuTimes()
	res.Stamp["cpu_steal_frac"] = strconv.FormatFloat(ratio(steal1-steal0, total1-total0), 'f', 4, 64)
	if err := res.orderEndToEnd(); err != nil {
		return nil, err
	}
	// An open loop whose generator fell behind measured its own backlog,
	// not the node: such a run is invalid, not slow.
	if s.clients == 0 && res.genLateP99 > maxGenLateMs {
		return nil, fmt.Errorf("run invalid: generator p99 lateness %.1f ms exceeds %d ms", res.genLateP99, maxGenLateMs)
	}
	if rc.trace {
		if err := res.completeLayers(); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(rc.out, "traces", fmt.Sprintf("%s-s%d-t%d.json", rc.workload, rc.seed, seconds))); err != nil {
			return nil, err
		}
	} else if res.Correct {
		if err := res.save(resultPath(rc.out, rc.workload, rc.seed, seconds)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// programStamp identifies the program under test and the machine shape
// it runs on.
func programStamp(commit string) map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

// cpuTimes reads the machine's CPU time stolen by the hypervisor and its
// CPU time in all, in clock ticks, from /proc/stat (0, 0 where there is
// none). A run's share of stolen time tells a slow host from a slow
// program.
func cpuTimes() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		// guest and guest_nice (fields 9 and 10) are already in user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// settleDisk writes every dirty page out, untimed, so a set-up's writes
// and a finished run's deletes are not still reaching the disk, and
// slowing its fsyncs, while the next set-up or window is timed.
func settleDisk() { syscall.Sync() }

// maxGenLateMs is the generator lateness (p99) beyond which an open-loop
// run is flagged invalid.
const maxGenLateMs = 250

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}
