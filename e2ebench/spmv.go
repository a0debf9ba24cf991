package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/bcontainer"
	"repro/internal/containers/pmatrix"
	"repro/internal/containers/pvector"
	"repro/internal/palgo"
	"repro/internal/runtime"
)

// spmvShape sizes spmv_csr.
type spmvShape struct {
	n             int64 // the matrix is n × n
	nnzPerRow     int   // nonzeros in every row, at seeded distinct columns
	callsPerRound int   // SpMV calls per round
	readsPerRound int   // y reads per location per round
}

var spmvFull = spmvShape{n: 20000, nnzPerRow: 8, callsPerRound: 5, readsPerRound: 2048}

// csr is the generated matrix as (row, col, value) triplets in compressed
// sparse rows, with the fixed vector x.
type csr struct {
	rowPtr []int
	cols   []int64
	vals   []int64
	x      []int64
}

// genCSR generates the matrix and x of a seed: every row holds nnzPerRow
// distinct uniformly drawn columns with values in ±[1, 100]; x holds values
// in [-1000, 1000].  No value is 0, so every triplet is stored.
func genCSR(seed int64, shape spmvShape) *csr {
	s := uint64(seed)
	m := &csr{rowPtr: make([]int, 1, shape.n+1), x: make([]int64, shape.n)}
	row := make([]int64, 0, shape.nnzPerRow)
	for r := int64(0); r < shape.n; r++ {
		row = row[:0]
		for j := uint64(0); len(row) < shape.nnzPerRow; j++ {
			c := int64(mix(s, uint64(r), j, 0x63) % uint64(shape.n))
			if !slices.Contains(row, c) {
				row = append(row, c)
			}
		}
		slices.Sort(row)
		for _, c := range row {
			h := mix(s, uint64(r), uint64(c), 0x61)
			v := int64(h%100) + 1
			if h>>63 == 1 {
				v = -v
			}
			m.vals = append(m.vals, v)
		}
		m.cols = append(m.cols, row...)
		m.rowPtr = append(m.rowPtr, len(m.cols))
	}
	for i := range m.x {
		m.x[i] = int64(mix(s, uint64(i), 0x78)%2001) - 1000
	}
	return m
}

// product is the sequential reference y = A·x.
func (m *csr) product() []int64 {
	y := make([]int64, len(m.rowPtr)-1)
	for r := range y {
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			y[r] += m.vals[k] * m.x[m.cols[k]]
		}
	}
	return y
}

// checkY checks one entry of y against the reference.
func checkY(i, got, want int64) error {
	if got != want {
		return fmt.Errorf("spmv: y[%d] = %d, reference %d", i, got, want)
	}
	return nil
}

// runSpMV runs spmv_csr: a CSR pMatrix is filled from the generated
// triplets, then every round runs palgo.SpMV callsPerRound times and reads
// some y entries back with pvector.Get.
func runSpMV(cfg config, shape spmvShape) *result {
	res := newResult()
	m := newMachine(cfg, runtime.InprocTransport)
	ts := cfg.tracers()
	lats := make([]*latencies, locations)
	gen := genCSR(cfg.seed, shape)
	nnz := int64(len(gen.vals))
	var yRef []int64
	m.Execute(func(loc *runtime.Location) {
		me, tr := loc.ID(), ts[loc.ID()]
		a := pmatrix.NewSparse[int64](loc, shape.n, shape.n)
		x := pvector.New[int64](loc, shape.n)
		y := pvector.New[int64](loc, shape.n)
		x.LocalUpdate(func(i int64, _ int64) int64 { return gen.x[i] })
		rows, _ := a.LocalBlocks()
		for _, rr := range rows {
			for r := rr.Lo; r < rr.Hi; r++ {
				for k := gen.rowPtr[r]; k < gen.rowPtr[r+1]; k++ {
					tr.begin("pmatrix.SetLocal")
					ok := a.SetLocal(r, gen.cols[k], gen.vals[k])
					tr.end(1)
					if !ok {
						res.fail(fmt.Errorf("spmv: no local block holds (%d, %d)", r, gen.cols[k]))
					}
				}
			}
		}
		tr.begin("runtime.Fence/fill")
		loc.Fence()
		tr.end(0)
		markSetup(loc, res)
		if mem := a.MemorySize(); me == 0 {
			res.set("containers.resident_mb", float64(mem.Total())/1e6)
		}

		if me == 0 {
			yRef = gen.product()
		}
		loc.Barrier()
		dom := y.LocalDomain()
		targets, remote := readTargets(cfg.seed, me, dom.Lo, dom.Hi, shape.n, shape.readsPerRound)
		lat := &latencies{}
		lats[me] = lat
		var kernel time.Duration
		var rates []float64 // work per second of each round's kernel calls
		roundWork := float64(nnz) * float64(shape.callsPerRound)
		var kstats runtime.Stats // this location's counters over the kernel calls
		var attempted, failed, rounds int64
		p := beginPhase(loc)
		for more := true; more; rounds++ {
			loc.Barrier()
			s0 := loc.Stats()
			t := time.Now()
			for c := 0; c < shape.callsPerRound; c++ {
				tr.begin("palgo.SpMV")
				palgo.SpMV(loc, a, x, y)
				tr.end(1)
			}
			kd := time.Since(t)
			kernel += kd
			rates = append(rates, roundWork/kd.Seconds())
			kstats = kstats.Add(loc.Stats().Sub(s0))
			for i, idx := range targets {
				t := time.Now()
				v := y.Get(idx)
				d := time.Since(t)
				tr.record("pvector.Get", t, d, 1)
				lat.add(d, remote[i])
				res.fail(checkY(idx, v, yRef[idx]))
			}
			lat.endRound()
			y.LocalRange(func(i, v int64) bool {
				res.fail(checkY(i, v, yRef[i]))
				return true
			})
			attempted += int64(shape.callsPerRound + len(targets))
			more = runtime.BroadcastT(loc, 0, time.Since(p.start) < cfg.seconds)
		}
		e := p.finish(loc)
		res.count(attempted, failed)
		kstats = runtime.AllReduceT(loc, kstats, runtime.Stats.Add)
		if me == 0 {
			work := float64(nnz) * float64(shape.callsPerRound) * float64(rounds)
			res.set("work_per_s", median(rates))
			e.report(res, work, kstats, float64(rounds)*float64(shape.callsPerRound))
			res.note("spmv: %dx%d, %d nonzeros, %d rounds of %d calls, SpMV time %.3f s of %.3f s",
				shape.n, shape.n, nnz, rounds, shape.callsPerRound, kernel.Seconds(), e.wall.Seconds())
		}

		if cfg.trace {
			probeSpMV(tr, res, a, x, y, gen, yRef)
		}
	})
	reportLatency(res, lats)
	totals := finishTrace(cfg, res, ts)
	if cfg.trace {
		res.set("pmatrix.set_local_ns_per_nz", perUnit(totals, "pmatrix.SetLocal"))
		res.set("bcontainer.csr_walk_ns_per_nz", perUnit(totals, "bcontainer.SparseMatrixBlock.RowNZ"))
		res.set("palgo.spmv_ms", perUnit(totals, "palgo.SpMV")/1e6)
		res.set("pvector.get_bulk_ns_per_elem", perUnit(totals, "pvector.GetBulk"))
		res.set("pvector.combine_bulk_ns_per_elem", perUnit(totals, "pvector.CombineBulk+Fence"))
	}
	return res
}

// probeSpMV times the pieces of one SpMV call in isolation on this
// location's blocks: the CSR row walk against a local copy of x, the bulk
// read of the x entries the blocks need, and the bulk combine of one
// partial per row into y (zeros, so y keeps its value).  Collective.
func probeSpMV(tr *tracer, res *result, a *pmatrix.SparseMatrix[int64], x, y *pvector.Vector[int64], gen *csr, yRef []int64) {
	var idxs, need []int64
	var partials []int64
	nz := 0
	tr.begin("bcontainer.SparseMatrixBlock.RowNZ")
	a.RangeLocalBlocks(func(bc *bcontainer.SparseMatrixBlock[int64]) {
		for r := bc.Rows().Lo; r < bc.Rows().Hi; r++ {
			cs, vs := bc.RowNZ(r)
			var acc int64
			for k, c := range cs {
				acc += vs[k] * gen.x[c]
			}
			nz += len(cs)
			idxs, partials = append(idxs, r), append(partials, acc)
		}
	})
	tr.end(nz)
	for k, r := range idxs {
		res.fail(checkY(r, partials[k], yRef[r]))
	}
	a.RangeLocalBlocks(func(bc *bcontainer.SparseMatrixBlock[int64]) {
		for r := bc.Rows().Lo; r < bc.Rows().Hi; r++ {
			cs, _ := bc.RowNZ(r)
			need = append(need, cs...)
		}
	})
	slices.Sort(need)
	need = slices.Compact(need)
	tr.begin("pvector.GetBulk")
	xs := x.GetBulk(need)
	tr.end(len(need))
	for k, c := range need {
		if xs[k] != gen.x[c] {
			res.fail(fmt.Errorf("spmv: x.GetBulk returned x[%d] = %d, want %d", c, xs[k], gen.x[c]))
			break
		}
	}
	zeros := make([]int64, len(idxs))
	tr.begin("pvector.CombineBulk+Fence")
	y.CombineBulk(idxs, zeros, func(cur, v int64) int64 { return cur + v })
	y.Location().Fence()
	tr.end(len(idxs))
}
