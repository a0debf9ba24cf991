package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/containers/passoc"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// Tiny shapes: every workload runs one round in well under a second.
var (
	prTiny   = prShape{side: 12, iters: 3, readsPerRound: 64}
	kvTiny   = kvShape{keysPerLoc: 2000, roundOps: 256, streamRounds: 2, zipfS: 1.1}
	spmvTiny = spmvShape{n: 200, nnzPerRow: 4, callsPerRound: 2, readsPerRound: 64}
)

func tinyRuns() map[string]func(config) *result {
	return map[string]func(config) *result{
		"pagerank_mesh": func(c config) *result { return runPageRank(c, prTiny) },
		"kv_zipf":       func(c config) *result { return runKV(c, kvTiny, runtime.InprocTransport) },
		"kv_zipf_wire":  func(c config) *result { return runKV(c, kvTiny, runtime.WireTransport) },
		"kv_zipf_tcp":   func(c config) *result { return runKV(c, kvTiny, runtime.TCPLoopbackTransport) },
		"spmv_csr":      func(c config) *result { return runSpMV(c, spmvTiny) },
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and requires its checks to pass and every metric to be reported.
func TestWorkloadsTiny(t *testing.T) {
	for name, run := range tinyRuns() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0, trace: traced, traceDir: t.TempDir()}
			res := run(cfg)
			if !res.correct() {
				t.Fatalf("%s (traced %v): checks failed: %v", name, traced, res.errs)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%s (traced %v): %d attempted, %d failed", name, traced, res.attempted, res.failed)
			}
			rep := res.report(traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Fatalf("%s: %d metrics reported, want %d", name, len(rep.Metrics), len(defs))
			}
			if !traced {
				for _, d := range endToEnd {
					if v := rep.Metrics[d.name].Value; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v, want a positive number", name, d.name, v)
					}
				}
			}
		}
	}
}

// TestTracedMetricsMeasured checks that each workload's traced run measures
// the per-layer metrics of the layers it exercises.
func TestTracedMetricsMeasured(t *testing.T) {
	want := map[string][]string{
		"pagerank_mesh": {"pgraph.add_edge_ns", "pgraph.edge_walk_ns_per_edge", "graphalgo.iter_ms", "runtime.msgs_per_iter"},
		"kv_zipf": {"partition.find_ns", "passoc.read_local_p50_us", "passoc.read_remote_p50_us", "passoc.apply_issue_ns",
			"passoc.bulk_load_ns_per_key", "bcontainer.hashmap_find_ns", "runtime.rmis_per_op"},
		"kv_zipf_wire": {"transport.frames_per_op", "transport.wire_bytes_per_op", "transport.acks_per_frame", "transport.rendezvous_per_op",
			"transport.encode_batch_ns", "transport.decode_batch_ns"},
		"kv_zipf_tcp": {"transport.frames_per_op", "transport.wire_bytes_per_op", "transport.acks_per_frame", "transport.rendezvous_per_op",
			"transport.encode_batch_ns", "transport.decode_batch_ns"},
		"spmv_csr": {"pmatrix.set_local_ns_per_nz", "bcontainer.csr_walk_ns_per_nz", "palgo.spmv_ms",
			"pvector.get_bulk_ns_per_elem", "pvector.combine_bulk_ns_per_elem", "runtime.bulk_ops_per_rmi"},
	}
	runs := tinyRuns()
	for name, metrics := range want {
		res := runs[name](config{workload: name, seed: 3, trace: true, traceDir: t.TempDir()})
		for _, m := range append(metrics, "containers.resident_mb") {
			if v := res.metrics[m]; !(v > 0) {
				t.Errorf("%s: traced %s = %v, want > 0", name, m, v)
			}
		}
		if !strings.HasPrefix(name, "kv_zipf_") {
			for _, m := range []string{"transport.frames_per_op", "transport.encode_batch_ns", "transport.decode_batch_ns"} {
				if v := res.metrics[m]; v != 0 {
					t.Errorf("%s: traced %s = %v on an in-process workload, want 0", name, m, v)
				}
			}
		}
	}
}

func TestPageRankChecksCatchAPerturbedRank(t *testing.T) {
	ref := seqPageRank(prTiny.side, prTiny.iters)
	var sum float64
	got := map[int64]float64{}
	for vd, r := range ref {
		got[int64(vd)] = r
		sum += r
	}
	if err := checkRanks(ref, got, len(ref)); err != nil {
		t.Fatalf("reference rejected: %v", err)
	}
	if err := checkRankSum(sum); err != nil {
		t.Fatalf("reference sum rejected: %v", err)
	}
	got[5] += 1e-9
	if checkRanks(ref, got, len(ref)) == nil {
		t.Fatal("a rank off by 1e-9 passed")
	}
	if checkRankRead(5, got[5], ref[5]) == nil {
		t.Fatal("a read off by 1e-9 passed")
	}
	if checkRankSum(sum+1e-6) == nil {
		t.Fatal("a rank sum off by 1e-6 passed")
	}
}

func TestKVChecksCatchWrongValues(t *testing.T) {
	base := kvKeyBase(1)
	k1, k2 := base+10, base+11
	if err := checkKVRead(k1, kvValue(k1, 3)); err != nil {
		t.Fatalf("own value rejected: %v", err)
	}
	if checkKVRead(k1, kvValue(k2, 3)) == nil {
		t.Fatal("a read returning another key's value passed")
	}
	if err := checkKVFinal(k1, kvValue(k1, 5), 5, 4); err != nil {
		t.Fatalf("exact counter rejected: %v", err)
	}
	if checkKVFinal(k1, kvValue(k1, 4), 5, 4) == nil {
		t.Fatal("a dropped increment passed")
	}
	if checkKVFinal(k1, kvValue(k1, 5), 5, 6) == nil {
		t.Fatal("a read of a count above the final one passed")
	}
	if checkKVSize(101, 100, 5, 4) != nil || checkKVSize(102, 100, 5, 4) == nil {
		t.Fatal("size check wrong")
	}
}

func TestSpMVChecksCatchAnOffByOneEntry(t *testing.T) {
	m := genCSR(4, spmvTiny)
	y := m.product()
	// An independent dense product of the same triplets.
	n := int(spmvTiny.n)
	dense := make([]int64, n*n)
	for r := 0; r < n; r++ {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			dense[r*n+int(m.cols[k])] = m.vals[k]
		}
	}
	for r := 0; r < n; r++ {
		var want int64
		for c := 0; c < n; c++ {
			want += dense[r*n+c] * m.x[c]
		}
		if err := checkY(int64(r), y[r], want); err != nil {
			t.Fatalf("reference product: %v", err)
		}
	}
	if checkY(3, y[3]+1, y[3]) == nil {
		t.Fatal("a y entry off by one passed")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(0, time.Now())
	tr.begin("outer")
	tr.record("inner", time.Now(), 5*time.Millisecond, 3)
	tr.end(1)
	tot := mergeTotals([]*tracer{tr, nil})
	outer, inner := tot["outer"], tot["inner"]
	if inner.TotalNs != int64(5*time.Millisecond) || inner.Units != 3 || inner.SelfNs != inner.TotalNs {
		t.Fatalf("inner = %+v", inner)
	}
	if outer.SelfNs != outer.TotalNs-inner.TotalNs {
		t.Fatalf("outer self %d, total %d, child %d", outer.SelfNs, outer.TotalNs, inner.TotalNs)
	}
	if tr.spans[0].Parent != tr.spans[1].ID {
		t.Fatalf("inner span's parent %d, want %d", tr.spans[0].Parent, tr.spans[1].ID)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads)-1 {
		t.Errorf("%d workloads listed, want every implemented one but kv_zipf_tcp", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("%d metrics listed, %d reported", len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: listed %s (%s), reported %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// TestKVStreamQuarterLocal checks that exactly every fourth read and every
// fourth increment of a round goes to a key the issuing location owns.
func TestKVStreamQuarterLocal(t *testing.T) {
	m := newMachine(config{seed: 5}, runtime.InprocTransport)
	m.Execute(func(loc *runtime.Location) {
		h := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
		ops := kvStream(loc, h, 5, kvTiny)
		for r := 0; r < kvTiny.streamRounds; r++ {
			var n, local [opErase + 1]int
			for _, op := range ops[r*kvTiny.roundOps:][:kvTiny.roundOps] {
				if op.kind != opFind && op.kind != opApply {
					continue
				}
				if owned := h.Lookup(op.key) == loc.ID(); owned == op.remote {
					t.Errorf("location %d: key %d marked remote=%v, owned here=%v", loc.ID(), op.key, op.remote, owned)
				}
				n[op.kind]++
				if !op.remote {
					local[op.kind]++
				}
			}
			for _, k := range []uint8{opFind, opApply} {
				if 4*local[k] != n[k] {
					t.Errorf("location %d round %d: %d of %d operations of kind %d local, want a quarter", loc.ID(), r, local[k], n[k], k)
				}
			}
		}
	})
}
