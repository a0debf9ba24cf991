package main

import (
	"fmt"
	"sort"
	"sync"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json order.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	{"runtime.rmis_per_op", "rmi/op"},
	{"runtime.msgs_per_op", "msg/op"},
	{"runtime.bytes_per_op", "B/op"},
	{"runtime.msgs_per_iter", "msg/iter"},
	{"runtime.bulk_ops_per_rmi", "op/rmi"},
	{"runtime.fence_wait_ms", "ms"},
	{"runtime.barrier_wait_ms", "ms"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_pause_ms", "ms"},
	{"transport.frames_per_op", "frame/op"},
	{"transport.wire_bytes_per_op", "B/op"},
	{"transport.acks_per_frame", "ack/frame"},
	{"transport.rendezvous_per_op", "req/op"},
	{"transport.encode_batch_ns", "ns"},
	{"transport.decode_batch_ns", "ns"},
	{"partition.find_ns", "ns"},
	{"passoc.read_local_p50_us", "us"},
	{"passoc.read_remote_p50_us", "us"},
	{"passoc.apply_issue_ns", "ns"},
	{"passoc.bulk_load_ns_per_key", "ns/key"},
	{"pgraph.add_edge_ns", "ns"},
	{"pgraph.build_fence_ms", "ms"},
	{"pmatrix.set_local_ns_per_nz", "ns/nz"},
	{"bcontainer.hashmap_find_ns", "ns"},
	{"pgraph.edge_walk_ns_per_edge", "ns/edge"},
	{"bcontainer.csr_walk_ns_per_nz", "ns/nz"},
	{"graphalgo.iter_ms", "ms"},
	{"palgo.spmv_ms", "ms"},
	{"pvector.get_bulk_ns_per_elem", "ns/elem"},
	{"pvector.combine_bulk_ns_per_elem", "ns/elem"},
	{"containers.resident_mb", "MB"},
}

// maxErrs bounds how many failed checks a run keeps for its report.
const maxErrs = 20

// result collects one run's counts, metrics and failed checks.  Both
// locations write to it, so every method locks.
type result struct {
	mu        sync.Mutex
	errs      []string
	nErrs     int
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records a failed output check.
func (r *result) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nErrs++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, err.Error())
	}
}

// count adds operations attempted and failed.
func (r *result) count(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

func (r *result) set(name string, v float64) {
	r.mu.Lock()
	r.metrics[name] = v
	r.mu.Unlock()
}

func (r *result) note(format string, args ...any) {
	r.mu.Lock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *result) correct() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nErrs == 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report renders the final JSON object: the per-layer metrics of a traced
// run, the end-to-end metrics otherwise.
func (r *result) report(traced bool) report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := report{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: r.metrics[d.name], Unit: d.unit}
	}
	return out
}

// e2eLine renders the end-to-end metrics as one comment line, so a traced
// run also shows them and the tracing overhead can be read off.
func (r *result) e2eLine() string {
	names := make([]string, 0, len(endToEnd))
	for _, d := range endToEnd {
		names = append(names, d.name)
	}
	sort.Strings(names)
	s := "end-to-end:"
	for _, n := range names {
		s += fmt.Sprintf(" %s=%.6g", n, r.metrics[n])
	}
	return s
}
