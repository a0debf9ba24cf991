package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/containers/pgraph"
	"repro/internal/graphalgo"
	"repro/internal/runtime"
)

// prShape sizes pagerank_mesh.
type prShape struct {
	side          int64 // the mesh is side × side vertices
	iters         int   // PageRank iterations per round
	readsPerRound int   // VertexProperty reads per location per round
}

var prFull = prShape{side: 450, iters: 3, readsPerRound: 2048}

const damping = 0.85

// Tolerances of the PageRank checks: every rank against the sequential
// reference, and the rank sum against 1 (a mesh has no dangling vertices,
// so no rank mass is lost).
const (
	rankTol = 1e-12
	sumTol  = 1e-9
)

// meshNeighbours calls fn for each 4-neighbour of vertex vd of a side×side
// mesh.
func meshNeighbours(side, vd int64, fn func(nb int64)) {
	r, c := vd/side, vd%side
	if r > 0 {
		fn(vd - side)
	}
	if r < side-1 {
		fn(vd + side)
	}
	if c > 0 {
		fn(vd - 1)
	}
	if c < side-1 {
		fn(vd + 1)
	}
}

// meshEdges is the number of directed edges of a side×side mesh.
func meshEdges(side int64) int64 { return 4 * side * (side - 1) }

// seqPageRank is the sequential reference: iters synchronous PageRank
// iterations on the mesh whose every vertex links to its 4-neighbours.
func seqPageRank(side int64, iters int) []float64 {
	n := side * side
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	deg := func(vd int64) (d int) {
		meshNeighbours(side, vd, func(int64) { d++ })
		return d
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		for vd := int64(0); vd < n; vd++ {
			share := rank[vd] / float64(deg(vd))
			meshNeighbours(side, vd, func(nb int64) { next[nb] += share })
		}
		for i := range next {
			next[i] = (1-damping)/float64(n) + damping*next[i]
		}
		rank, next = next, rank
	}
	return rank
}

// checkRanks compares one location's ranks against the reference.
func checkRanks(ref []float64, got map[int64]float64, want int) error {
	if len(got) != want {
		return fmt.Errorf("pagerank: %d ranks, want %d", len(got), want)
	}
	for vd, r := range got {
		if vd < 0 || vd >= int64(len(ref)) {
			return fmt.Errorf("pagerank: rank for unknown vertex %d", vd)
		}
		if d := math.Abs(r - ref[vd]); !(d <= rankTol) {
			return fmt.Errorf("pagerank: vertex %d rank %.17g, reference %.17g (|diff| %.3g > %g)", vd, r, ref[vd], d, rankTol)
		}
	}
	return nil
}

// checkRankSum checks that the ranks sum to 1.
func checkRankSum(sum float64) error {
	if d := math.Abs(sum - 1); !(d <= sumTol) {
		return fmt.Errorf("pagerank: ranks sum to %.17g (|diff| %.3g > %g)", sum, d, sumTol)
	}
	return nil
}

// checkRankRead checks one VertexProperty read against the reference.
func checkRankRead(vd int64, got, ref float64) error {
	if d := math.Abs(got - ref); !(d <= rankTol) {
		return fmt.Errorf("pagerank: VertexProperty(%d) = %.17g, reference %.17g", vd, got, ref)
	}
	return nil
}

// readTargets draws a location's point reads over the global index range
// [0, n) whose part [lo, hi) it owns: a quarter local, the rest owned by
// the other location, so the read median lies among the remote reads.
func readTargets(seed int64, me int, lo, hi, n int64, count int) (idx []int64, remote []bool) {
	for i := 0; i < count; i++ {
		h := mix(uint64(seed), uint64(me), uint64(i), 0x72)
		if i%4 == 0 {
			idx = append(idx, lo+int64(h%uint64(hi-lo)))
			remote = append(remote, false)
			continue
		}
		// Remote: the indices outside [lo, hi).
		j := int64(h % uint64(n-(hi-lo)))
		if j >= lo {
			j += hi - lo
		}
		idx = append(idx, j)
		remote = append(remote, true)
	}
	return idx, remote
}

// runPageRank runs pagerank_mesh: a static side×side mesh pGraph is built
// edge by edge, then every round runs graphalgo.PageRank, stores the ranks
// in the vertex properties and reads some back with VertexProperty.
func runPageRank(cfg config, shape prShape) *result {
	res := newResult()
	m := newMachine(cfg, runtime.InprocTransport)
	ts := cfg.tracers()
	lats := make([]*latencies, locations)
	n := shape.side * shape.side
	var ref []float64
	m.Execute(func(loc *runtime.Location) {
		me, tr := loc.ID(), ts[loc.ID()]
		g := pgraph.New[float64, int8](loc, n)
		for _, vd := range g.LocalVertices() {
			meshNeighbours(shape.side, vd, func(nb int64) {
				tr.begin("pgraph.AddEdgeAsync")
				g.AddEdgeAsync(vd, nb, 0)
				tr.end(1)
			})
		}
		tr.begin("runtime.Fence/build")
		loc.Fence()
		tr.end(0)
		markSetup(loc, res)
		if mem := g.MemorySize(); me == 0 {
			res.set("containers.resident_mb", float64(mem.Total())/1e6)
		}

		if me == 0 {
			ref = seqPageRank(shape.side, shape.iters)
		}
		loc.Barrier()
		locals := g.LocalVertices()
		lo, hi := slices.Min(locals), slices.Max(locals)+1
		if hi-lo != int64(len(locals)) {
			res.fail(fmt.Errorf("pagerank: location %d stores %d vertices in [%d, %d), not a contiguous block", me, len(locals), lo, hi))
		}
		targets, remote := readTargets(cfg.seed, me, lo, hi, n, shape.readsPerRound)
		lat := &latencies{}
		lats[me] = lat
		params := graphalgo.PageRankParams{Damping: damping, Iterations: shape.iters}
		var kernel time.Duration
		var rates []float64 // work per second of each round's kernel calls
		roundWork := float64(meshEdges(shape.side)) * float64(shape.iters)
		var kstats runtime.Stats // this location's counters over the kernel calls
		var attempted, failed, rounds int64
		p := beginPhase(loc)
		for more := true; more; rounds++ {
			loc.Barrier()
			s0 := loc.Stats()
			t := time.Now()
			tr.begin("graphalgo.PageRank")
			ranks := graphalgo.PageRank(loc, g, params)
			tr.end(shape.iters)
			kd := time.Since(t)
			kernel += kd
			rates = append(rates, roundWork/kd.Seconds())
			kstats = kstats.Add(loc.Stats().Sub(s0))
			res.fail(checkRanks(ref, ranks, len(locals)))
			tr.begin("graphalgo.RankSum")
			sum := graphalgo.RankSum(loc, ranks)
			tr.end(0)
			if me == 0 {
				res.fail(checkRankSum(sum))
			}
			tr.begin("pgraph.UpdateLocalVertices")
			g.UpdateLocalVertices(func(vd int64, _ float64) float64 { return ranks[vd] })
			tr.end(len(locals))
			loc.Barrier()
			for i, vd := range targets {
				t := time.Now()
				r, ok := g.VertexProperty(vd)
				d := time.Since(t)
				tr.record("pgraph.VertexProperty", t, d, 1)
				lat.add(d, remote[i])
				if !ok {
					failed++
					continue
				}
				res.fail(checkRankRead(vd, r, ref[vd]))
			}
			lat.endRound()
			attempted += 1 + int64(len(targets))
			more = runtime.BroadcastT(loc, 0, time.Since(p.start) < cfg.seconds)
		}
		e := p.finish(loc)
		res.count(attempted, failed)
		kstats = runtime.AllReduceT(loc, kstats, runtime.Stats.Add)
		if me == 0 {
			work := float64(meshEdges(shape.side)) * float64(shape.iters) * float64(rounds)
			res.set("work_per_s", median(rates))
			e.report(res, work, kstats, float64(rounds)*float64(shape.iters))
			res.note("pagerank: %dx%d mesh, %d edges, %d rounds of %d iterations, PageRank time %.3f s of %.3f s",
				shape.side, shape.side, meshEdges(shape.side), rounds, shape.iters, kernel.Seconds(), e.wall.Seconds())
		}

		if cfg.trace {
			// The edge walk PageRank's scatter makes, without the rank
			// arithmetic: every out-edge of every local vertex.
			var edges, sink int64
			tr.begin("pgraph.RangeLocalVertices")
			g.RangeLocalVertices(func(v *pgraph.Vertex[float64, int8]) bool {
				for _, e := range v.Edges {
					sink += e.Target
				}
				edges += int64(len(v.Edges))
				return true
			})
			tr.end(int(edges))
			if sink < 0 {
				res.fail(fmt.Errorf("pagerank: negative edge target"))
			}
		}
	})
	reportLatency(res, lats)
	totals := finishTrace(cfg, res, ts)
	if cfg.trace {
		res.set("pgraph.add_edge_ns", perUnit(totals, "pgraph.AddEdgeAsync"))
		res.set("pgraph.build_fence_ms", float64(totals["runtime.Fence/build"].TotalNs)/locations/1e6)
		res.set("pgraph.edge_walk_ns_per_edge", perUnit(totals, "pgraph.RangeLocalVertices"))
		res.set("graphalgo.iter_ms", perUnit(totals, "graphalgo.PageRank")/1e6)
	}
	return res
}
