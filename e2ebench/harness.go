package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/runtime"
	"repro/internal/transport"
)

// locations is the machine size of every workload: two locations in one
// process, one per core of the two-core machines the reference figures
// were taken on.
const locations = 2

// newMachine builds a two-location machine on the given transport with the
// library's default aggregation.
func newMachine(cfg config, factory runtime.TransportFactory) *runtime.Machine {
	mc := runtime.DefaultConfig()
	mc.Seed = cfg.seed
	mc.Transport = factory
	return runtime.NewMachine(locations, mc)
}

// tracers returns one tracer per location for a traced run, nil ones for an
// untraced run.
func (c config) tracers() []*tracer {
	ts := make([]*tracer, locations)
	if c.trace {
		origin := time.Now()
		for i := range ts {
			ts[i] = newTracer(i, origin)
		}
	}
	return ts
}

// markSetup ends the set-up: setup_s is the time from process start until
// every location has loaded its share, and live_heap_mb the heap still in
// use after two forced collections (the second one frees what pooled
// scratch kept alive through the first).  A --setup-only process prints its
// set-up time and exits here.  Collective.
func markSetup(loc *runtime.Location, res *result) {
	loc.Barrier()
	if loc.ID() == 0 {
		setup := time.Since(processStart).Seconds()
		if setupOnly {
			fmt.Println(strconv.FormatFloat(setup, 'g', -1, 64))
			os.Exit(0)
		}
		res.set("setup_s", setup)
		var one, two goruntime.MemStats
		goruntime.GC()
		goruntime.ReadMemStats(&one)
		goruntime.GC()
		goruntime.ReadMemStats(&two)
		res.set("live_heap_mb", float64(two.HeapAlloc)/1e6)
		res.note("heap after set-up: %.1f MB after one GC, %.1f MB after two", float64(one.HeapAlloc)/1e6, float64(two.HeapAlloc)/1e6)
	}
	loc.Barrier()
}

// phase holds the counter snapshots taken when a measured phase starts.
type phase struct {
	start  time.Time
	stats  runtime.Stats
	remote int64
	wire   transport.WireStats
	mem    goruntime.MemStats
}

// beginPhase snapshots the counters and starts the clock.  Collective.
func beginPhase(loc *runtime.Location) *phase {
	loc.Barrier()
	p := &phase{stats: loc.Stats(), remote: loc.RemoteRMIs()}
	if loc.ID() == 0 {
		goruntime.ReadMemStats(&p.mem)
		p.wire = loc.Machine().WireStats()
	}
	loc.Barrier()
	p.start = time.Now()
	return p
}

// phaseEnd is what a measured phase cost, machine-wide.
type phaseEnd struct {
	wall        time.Duration // phase start until the closing fence returned
	stats       runtime.Stats
	remoteRMIs  int64
	wire        transport.WireStats
	allocBytes  uint64
	gcPause     time.Duration
	barrierWait time.Duration // longest wait at the closing barrier
	fenceWait   time.Duration // mean time in the closing fence
}

// finish closes a measured phase with a barrier and a fence, each timed,
// and folds every location's counter deltas.  The result is complete on
// location 0 only.  Collective.
func (p *phase) finish(loc *runtime.Location) phaseEnd {
	t := time.Now()
	loc.Barrier()
	barrier := time.Since(t)
	t = time.Now()
	loc.Fence()
	fence := time.Since(t)
	var e phaseEnd
	e.wall = time.Since(p.start)
	e.stats = runtime.AllReduceT(loc, loc.Stats().Sub(p.stats), runtime.Stats.Add)
	e.remoteRMIs = runtime.AllReduceSum(loc, loc.RemoteRMIs()-p.remote)
	e.barrierWait = runtime.AllReduceT(loc, barrier, func(a, b time.Duration) time.Duration { return max(a, b) })
	e.fenceWait = runtime.AllReduceT(loc, fence, func(a, b time.Duration) time.Duration { return a + b }) / locations
	if loc.ID() == 0 {
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		e.allocBytes = ms.TotalAlloc - p.mem.TotalAlloc
		e.gcPause = time.Duration(ms.PauseTotalNs - p.mem.PauseTotalNs)
		w := loc.Machine().WireStats()
		e.wire = wireDelta(w, p.wire)
	}
	loc.Barrier()
	return e
}

func wireDelta(a, b transport.WireStats) transport.WireStats {
	return transport.WireStats{
		FramesSent:          a.FramesSent - b.FramesSent,
		BytesSent:           a.BytesSent - b.BytesSent,
		DataFrames:          a.DataFrames - b.DataFrames,
		Acks:                a.Acks - b.Acks,
		RendezvousFallbacks: a.RendezvousFallbacks - b.RendezvousFallbacks,
	}
}

// report sets the counter-based per-layer metrics of a phase that did work
// units of work.  The per-iteration metrics come from kernel, the counters
// of the phase's iters kernel calls (or stream rounds).
func (e phaseEnd) report(res *result, work float64, kernel runtime.Stats, iters float64) {
	per := func(x int64, base float64) float64 {
		if base == 0 {
			return 0
		}
		return float64(x) / base
	}
	res.set("runtime.rmis_per_op", per(e.stats.RMIsSent, work))
	res.set("runtime.msgs_per_op", per(e.stats.MessagesSent, work))
	res.set("runtime.bytes_per_op", per(e.stats.BytesSimulated, work))
	res.set("runtime.msgs_per_iter", per(kernel.MessagesSent, iters))
	res.set("runtime.bulk_ops_per_rmi", per(kernel.BulkOps, float64(kernel.RMIsSent)))
	res.set("runtime.fence_wait_ms", ms(e.fenceWait))
	res.set("runtime.barrier_wait_ms", ms(e.barrierWait))
	res.set("go.alloc_bytes_per_op", per(int64(e.allocBytes), work))
	res.set("go.gc_pause_ms", ms(e.gcPause))
	res.set("transport.frames_per_op", per(e.wire.FramesSent, work))
	res.set("transport.wire_bytes_per_op", per(e.wire.BytesSent, work))
	res.set("transport.acks_per_frame", per(e.wire.Acks, float64(e.wire.DataFrames)))
	res.set("transport.rendezvous_per_op", per(e.wire.RendezvousFallbacks, work))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// codecReps is how many batches the codec probe encodes and decodes.
const codecReps = 2000

// probeCodec times transport.EncodeBatch and DecodeBatch on a batch shaped
// like the phase's traffic: as many descriptors as remote RMIs per message,
// carrying the phase's simulated bytes per message.  Only workloads whose
// phase sent frames over a wire run it; the others report 0.
func probeCodec(tr *tracer, e phaseEnd) error {
	msgs := max(e.stats.MessagesSent, 1)
	n := int(min(max((e.remoteRMIs+msgs/2)/msgs, 1), 4096))
	payload := int(e.stats.BytesSimulated / msgs)
	reqs := make([]transport.RequestDescriptor, n)
	for i := range reqs {
		reqs[i] = transport.RequestDescriptor{Handle: 1, Kind: transport.KindAsync, Bytes: uint32(payload / n)}
	}
	hdr := transport.BatchHeader{Src: 0, Dst: 1, Seq: 1, PayloadBytes: payload}
	var frame []byte
	tr.begin("transport.EncodeBatch")
	for i := 0; i < codecReps; i++ {
		frame = transport.EncodeBatch(hdr, reqs)
	}
	tr.end(codecReps)
	tr.begin("transport.DecodeBatch")
	for i := 0; i < codecReps; i++ {
		if _, _, err := transport.DecodeBatch(frame); err != nil {
			tr.end(i)
			return fmt.Errorf("decoding a %d-descriptor batch: %w", n, err)
		}
	}
	tr.end(codecReps)
	return nil
}

// finishTrace writes a traced run's spans, prints the self-time table to
// standard error and sets the metrics every traced workload shares.
func finishTrace(cfg config, res *result, ts []*tracer) map[string]spanTotal {
	totals := mergeTotals(ts)
	if !cfg.trace {
		return totals
	}
	path, err := writeTrace(cfg.traceDir, cfg.workload, cfg.seed, ts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: writing the trace:", err)
	} else {
		var dropped int64
		for _, t := range ts {
			dropped += t.dropped
		}
		res.note("spans written to %s (%d past the per-location cap of %d counted but not written)", path, dropped, spanCap)
	}
	for _, l := range selfTimeTable(totals) {
		fmt.Fprintln(os.Stderr, l)
	}
	res.note("%s", res.e2eLine())
	res.set("transport.encode_batch_ns", perUnit(totals, "transport.EncodeBatch"))
	res.set("transport.decode_batch_ns", perUnit(totals, "transport.DecodeBatch"))
	return totals
}

// latencies keeps one location's closed-loop read latencies, split into
// rounds.  Each sample is in nanoseconds; the top bit marks a read of an
// element owned by the other location.
type latencies struct {
	samples []uint32
	ends    []int
}

const remoteBit = 1 << 31

func (l *latencies) add(d time.Duration, remote bool) {
	v := uint32(min(d, remoteBit-1))
	if remote {
		v |= remoteBit
	}
	l.samples = append(l.samples, v)
}

func (l *latencies) endRound() { l.ends = append(l.ends, len(l.samples)) }

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reportLatency sets read_p50_us and read_p99_us to the medians, over every
// (location, round), of that round's p50 and p99.  It returns the p50 over
// all reads of locally owned and of remotely owned elements.
func reportLatency(res *result, ls []*latencies) (localP50, remoteP50 float64) {
	var p50s, p99s []float64
	var local, remote []float64
	total, minRound := 0, -1
	for _, l := range ls {
		from := 0
		for _, to := range l.ends {
			round := make([]float64, 0, to-from)
			for _, v := range l.samples[from:to] {
				us := float64(v&^remoteBit) / 1e3
				round = append(round, us)
				if v&remoteBit != 0 {
					remote = append(remote, us)
				} else {
					local = append(local, us)
				}
			}
			sort.Float64s(round)
			p50s = append(p50s, quantile(round, 0.50))
			p99s = append(p99s, quantile(round, 0.99))
			total += to - from
			if minRound < 0 || to-from < minRound {
				minRound = to - from
			}
			from = to
		}
	}
	res.set("read_p50_us", median(p50s))
	res.set("read_p99_us", median(p99s))
	sort.Float64s(local)
	sort.Float64s(remote)
	res.note("reads: %d samples in %d (location, round) groups of at least %d; %d local, %d remote",
		total, len(p50s), minRound, len(local), len(remote))
	return quantile(local, 0.5), quantile(remote, 0.5)
}
