// Command e2ebench is the repository's end-to-end benchmark.  One call runs
// one named workload on a two-location machine in this process, checks the
// program's outputs against references the benchmark computes on its own,
// and prints one JSON object as the last line of standard output:
//
//	e2ebench --workload kv_zipf --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// the run records spans around every call it makes into the library and
// reports the per-layer metrics instead.  An untraced run ends by timing
// more cold set-ups of its workload in child processes of itself, started
// with --setup-only.  See README.md for the workloads, the metrics and
// reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/runtime"
)

// processStart is taken while the package initialises, so setup_s counts
// everything the process does before its containers are loaded.
var processStart = time.Now()

// setupRuns is how many cold set-ups an untraced run times: its own and
// one in each of setupRuns-1 child processes that run the same workload's
// set-up only.  setup_s is their median; a single cold set-up of 0.2-0.6 s
// swings by 20-40% from process to process.
const setupRuns = 7

// setupOnly makes the process stop, printing its set-up time, as soon as
// the workload's containers are loaded.
var setupOnly bool

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// traceDir receives the span file of a traced run.
	traceDir string
}

// workloads maps each workload name to its full-size run.  kv_zipf_tcp is
// not in BENCHMARK.json: its figures did not repeat from run to run (see
// README.md), so it is kept for measuring by hand only.
var workloads = map[string]func(config) *result{
	"pagerank_mesh": func(c config) *result { return runPageRank(c, prFull) },
	"kv_zipf":       func(c config) *result { return runKV(c, kvFull, runtime.InprocTransport) },
	"kv_zipf_wire":  func(c config) *result { return runKV(c, kvFull, runtime.WireTransport) },
	"kv_zipf_tcp":   func(c config) *result { return runKV(c, kvFull, runtime.TCPLoopbackTransport) },
	"spmv_csr":      func(c config) *result { return runSpMV(c, spmvFull) },
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: pagerank_mesh, kv_zipf, kv_zipf_wire, kv_zipf_tcp or spmv_csr")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	)
	flag.BoolVar(&setupOnly, "setup-only", false, "print the set-up time and exit once the containers are loaded")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: ".bench_build/trace",
	}
	res := run(cfg)
	if !cfg.trace {
		coldSetups(cfg, res)
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	out, err := json.Marshal(res.report(cfg.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.correct() {
		os.Exit(1)
	}
}

// coldSetups times setupRuns-1 more cold set-ups of the run's workload and
// seed, one child process after another, once the run's own work is done,
// and sets setup_s to the median of them and the run's own.
func coldSetups(cfg config, res *result) {
	exe, err := os.Executable()
	if err != nil {
		res.fail(fmt.Errorf("setup: %w", err))
		return
	}
	times := []float64{res.metrics["setup_s"]}
	for i := 1; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			res.fail(fmt.Errorf("setup: child process: %w", err))
			return
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			res.fail(fmt.Errorf("setup: child process printed %q", out))
			return
		}
		times = append(times, v)
	}
	res.set("setup_s", median(times))
	res.note("setup_s: median of %d cold set-ups, one per process: %.4g", len(times), times)
}
