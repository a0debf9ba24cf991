package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bcontainer"
	"repro/internal/containers/passoc"
	"repro/internal/partition"
	"repro/internal/runtime"
)

// kvShape sizes the key-value workloads.
type kvShape struct {
	keysPerLoc   int     // keys each location bulk-loads
	roundOps     int     // operations per location per round, a multiple of len(kvPattern)
	streamRounds int     // rounds of distinct drawn keys, replayed in turn
	zipfS        float64 // exponent of the Zipf key distribution
}

var kvFull = kvShape{keysPerLoc: 1_000_000, roundOps: 8192, streamRounds: 8, zipfS: 1.1}

// Operation kinds of the key-value stream.
const (
	opFind uint8 = iota
	opApply
	opInsert
	opErase
)

// kvPattern is the mix of every sixteen stream operations: eight
// synchronous reads and six async increments of loaded keys, one insert of
// a fresh key and one erase of a fresh key inserted a round earlier.  Each
// round shuffles whole copies of it, so every round attempts the same
// operations.
var kvPattern = [16]uint8{
	opFind, opFind, opFind, opFind, opFind, opFind, opFind, opFind,
	opApply, opApply, opApply, opApply, opApply, opApply, opInsert, opErase,
}

// kvOp is one stream operation on a loaded key (reads and increments); the
// fresh keys of inserts and erases come from per-location counters.
type kvOp struct {
	kind   uint8
	remote bool  // the key is owned by the other location
	idx    int32 // index of the key among the loaded keys
	key    int64
}

// kvKeyBase returns the first loaded key of a seed; loaded key i is
// kvKeyBase(seed)+i, and the hash partition scatters them over owners.
func kvKeyBase(seed int64) int64 { return int64(mix(uint64(seed), 0x6b76)&0x3fffffff) << 32 }

// freshKey returns a location's c-th fresh key.  Fresh keys are negative,
// so they never collide with loaded keys or with the other location's.
func freshKey(loc int, c int64) int64 { return -(1 + int64(loc)<<40 + c) }

// kvTag is the tag every value stored under k carries in its high half.
func kvTag(k int64) uint32 { return uint32(splitmix64(uint64(k))) & 0x7fffffff }

// kvValue is the value of key k after count increments.
func kvValue(k, count int64) int64 { return int64(kvTag(k))<<32 | count }

func incr(v int64) int64 { return v + 1 }

// checkKVRead checks a read of key k: the value must carry k's own tag.
func checkKVRead(k, v int64) error {
	if tag := uint32(v >> 32); tag != kvTag(k) {
		return fmt.Errorf("kv: read of key %d returned %#x, tagged %#x instead of %#x", k, v, tag, kvTag(k))
	}
	return nil
}

// checkKVFinal checks the final value of loaded key k: its counter must
// equal the increments every location issued, and no read may have seen a
// larger count.
func checkKVFinal(k, v, issued, maxRead int64) error {
	if err := checkKVRead(k, v); err != nil {
		return err
	}
	if c := v & 0xffffffff; c != issued || maxRead > c {
		return fmt.Errorf("kv: key %d ends at count %d after %d increments issued (largest count read %d)", k, c, issued, maxRead)
	}
	return nil
}

// checkKVSize checks the final global size against the keys loaded,
// inserted and erased.
func checkKVSize(size, loaded, inserted, erased int64) error {
	if want := loaded + inserted - erased; size != want {
		return fmt.Errorf("kv: size %d, want %d loaded + %d inserted - %d erased = %d", size, loaded, inserted, erased, want)
	}
	return nil
}

// kvStream draws one location's stream: streamRounds rounds of shuffled
// kvPattern copies, whose reads and increments pick Zipf-distributed loaded
// keys.  Every fourth read and every fourth increment of a round picks a
// key this location owns, the others a key the other location owns, each
// by a Zipf rank among those keys.  So exactly a quarter of the reads stay
// local on every seed, and the read median lies among the remote reads
// instead of on the edge between the two.
func kvStream(loc *runtime.Location, h *passoc.HashMap[int64, int64], seed int64, shape kvShape) []kvOp {
	me := loc.ID()
	base := kvKeyBase(seed)
	var local, remote []int32
	for i := 0; i < shape.keysPerLoc*locations; i++ {
		if h.Lookup(base+int64(i)) == me {
			local = append(local, int32(i))
		} else {
			remote = append(remote, int32(i))
		}
	}
	rng := rand.New(rand.NewSource(int64(mix(uint64(seed), uint64(me), 0x7a))))
	zLocal := rand.NewZipf(rng, shape.zipfS, 1, uint64(len(local)-1))
	zRemote := rand.NewZipf(rng, shape.zipfS, 1, uint64(len(remote)-1))
	ops := make([]kvOp, 0, shape.roundOps*shape.streamRounds)
	kinds := make([]uint8, 0, shape.roundOps)
	for len(kinds) < shape.roundOps {
		kinds = append(kinds, kvPattern[:]...)
	}
	for r := 0; r < shape.streamRounds; r++ {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		var seen [opErase + 1]int // operations of each kind so far this round
		for _, kind := range kinds {
			op := kvOp{kind: kind}
			if kind == opFind || kind == opApply {
				if seen[kind]%4 == 0 {
					op.idx = local[zLocal.Uint64()]
				} else {
					op.idx, op.remote = remote[zRemote.Uint64()], true
				}
				seen[kind]++
				op.key = base + int64(op.idx)
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// runKV runs kv_zipf (inproc) or kv_zipf_tcp: a pHashMap[int64,int64] is
// bulk-loaded, then every location runs its closed-loop stream in rounds
// until the measured phase is over.
func runKV(cfg config, shape kvShape, factory runtime.TransportFactory) *result {
	res := newResult()
	m := newMachine(cfg, factory)
	ts := cfg.tracers()
	lats := make([]*latencies, locations)
	nKeys := int64(shape.keysPerLoc * locations)
	freshPerRound := int64(shape.roundOps / len(kvPattern))
	base := kvKeyBase(cfg.seed)
	m.Execute(func(loc *runtime.Location) {
		me, tr := loc.ID(), ts[loc.ID()]
		h := passoc.NewHashMap[int64, int64](loc, partition.Int64Hash)
		// Each location loads its share of the keys plus the fresh keys
		// the first round erases.
		n := shape.keysPerLoc + int(freshPerRound)
		keys, vals := make([]int64, 0, n), make([]int64, 0, n)
		for i := me * shape.keysPerLoc; i < (me+1)*shape.keysPerLoc; i++ {
			k := base + int64(i)
			keys, vals = append(keys, k), append(vals, kvValue(k, 0))
		}
		for c := int64(0); c < freshPerRound; c++ {
			k := freshKey(me, c)
			keys, vals = append(keys, k), append(vals, kvValue(k, 0))
		}
		tr.begin("passoc.InsertBulk")
		h.InsertBulk(keys, vals)
		tr.end(len(keys))
		tr.begin("runtime.Fence/load")
		loc.Fence()
		tr.end(0)
		keys, vals = nil, nil
		markSetup(loc, res)
		if mem := h.MemorySize(); me == 0 {
			res.set("containers.resident_mb", float64(mem.Total())/1e6)
		}

		ops := kvStream(loc, h, cfg.seed, shape)
		tally := make([]int32, nKeys)   // increments this location issued, per key
		maxRead := make([]int32, nKeys) // largest count this location read, per key
		lat := &latencies{samples: make([]uint32, 0, 1<<20)}
		lats[me] = lat
		nextFresh, nextErase := freshPerRound, int64(0)
		var attempted, failed, rounds int64
		var rates []float64 // operations per second of each round
		p := beginPhase(loc)
		for {
			rt := time.Now()
			seg := ops[int(rounds%int64(shape.streamRounds))*shape.roundOps:][:shape.roundOps]
			tr.begin("kv.round")
			for i := range seg {
				op := &seg[i]
				switch op.kind {
				case opFind:
					t := time.Now()
					v, ok := h.Find(op.key)
					d := time.Since(t)
					tr.record("passoc.Find", t, d, 1)
					lat.add(d, op.remote)
					if !ok {
						failed++
						continue
					}
					if err := checkKVRead(op.key, v); err != nil {
						res.fail(err)
					} else if c := int32(v); c > maxRead[op.idx] {
						maxRead[op.idx] = c
					}
				case opApply:
					tr.begin("passoc.Apply")
					h.Apply(op.key, incr)
					tr.end(1)
					tally[op.idx]++
				case opInsert:
					k := freshKey(me, nextFresh)
					nextFresh++
					tr.begin("passoc.Insert")
					h.Insert(k, kvValue(k, 0))
					tr.end(1)
				case opErase:
					k := freshKey(me, nextErase)
					nextErase++
					tr.begin("passoc.EraseAsync")
					h.EraseAsync(k)
					tr.end(1)
				}
			}
			tr.end(len(seg))
			lat.endRound()
			rates = append(rates, float64(len(seg))/time.Since(rt).Seconds())
			attempted += int64(len(seg))
			rounds++
			if time.Since(p.start) >= cfg.seconds {
				break
			}
		}
		e := p.finish(loc)
		res.count(attempted, failed)
		ops64 := float64(runtime.AllReduceSum(loc, attempted))
		allRounds := float64(runtime.AllReduceSum(loc, rounds))
		// The machine's rate: every location's median round rate, summed.
		rate := runtime.AllReduceFloat(loc, median(rates))
		if me == 0 {
			res.set("work_per_s", rate)
			e.report(res, ops64, e.stats, allRounds)
			res.note("kv: %d keys loaded, %.0f operations in %.0f rounds of %d per location, %.3f s", nKeys, ops64, allRounds, shape.roundOps, e.wall.Seconds())
		}

		// Output checks: size, every loaded key's counter against the
		// tallies, and every read's count against the final counter.
		inserted := runtime.AllReduceSum(loc, nextFresh-freshPerRound)
		erased := runtime.AllReduceSum(loc, nextErase)
		if size := h.Size(); me == 0 {
			res.fail(checkKVSize(size, nKeys+locations*freshPerRound, inserted, erased))
		}
		tallies := runtime.AllGatherT(loc, tally)
		reads := runtime.AllGatherT(loc, maxRead)
		var loadedHere int64
		h.LocalRange(func(k, v int64) bool {
			if k < 0 {
				return true
			}
			idx := k - base
			if idx < 0 || idx >= nKeys {
				res.fail(fmt.Errorf("kv: stored key %d was never loaded", k))
				return true
			}
			loadedHere++
			var issued, seen int64
			for l := range tallies {
				issued += int64(tallies[l][idx])
				seen = max(seen, int64(reads[l][idx]))
			}
			res.fail(checkKVFinal(k, v, issued, seen))
			return true
		})
		if n := runtime.AllReduceSum(loc, loadedHere); me == 0 && n != nKeys {
			res.fail(fmt.Errorf("kv: %d loaded keys stored, want %d", n, nKeys))
		}

		if cfg.trace {
			probeKV(tr, h, ops)
			// Location 0 holds the machine's wire counters.
			if runtime.AllReduceSum(loc, e.wire.FramesSent) > 0 {
				if err := probeCodec(tr, e); err != nil {
					res.fail(err)
				}
			}
		}
	})
	lp50, rp50 := reportLatency(res, lats)
	totals := finishTrace(cfg, res, ts)
	if cfg.trace {
		res.set("passoc.read_local_p50_us", lp50)
		res.set("passoc.read_remote_p50_us", rp50)
		res.set("passoc.apply_issue_ns", perUnit(totals, "passoc.Apply"))
		load, fence := totals["passoc.InsertBulk"], totals["runtime.Fence/load"]
		if load.Units > 0 {
			res.set("passoc.bulk_load_ns_per_key", float64(load.TotalNs+fence.TotalNs)/float64(load.Units))
		}
		res.set("partition.find_ns", perUnit(totals, "partition.Hashed.Find+Mapper.Map"))
		res.set("bcontainer.hashmap_find_ns", perUnit(totals, "bcontainer.HashMap.Find"))
	}
	return res
}

// probeKV times, for one round of this location's stream keys, the address
// resolution the element methods run (hash partition, then mapper) and the
// base-container lookups of the keys stored here.  It runs after the
// closing fence, when no request touches the storage.  It returns a value
// derived from every lookup so none can be optimised away.
func probeKV(tr *tracer, h *passoc.HashMap[int64, int64], ops []kvOp) int {
	part, mapper, me := h.Partition(), h.Mapper(), h.Location().ID()
	var keys []int64
	var bcs []*bcontainer.HashMap[int64, int64]
	var localKeys []int64
	for _, op := range ops {
		if op.kind != opFind && op.kind != opApply {
			continue
		}
		keys = append(keys, op.key)
		if b := part.Find(op.key).BCID; mapper.Map(b) == me {
			bc, _ := h.LocationManager().Get(b)
			bcs, localKeys = append(bcs, bc), append(localKeys, op.key)
		}
	}
	sink := 0
	tr.begin("partition.Hashed.Find+Mapper.Map")
	for _, k := range keys {
		sink += mapper.Map(part.Find(k).BCID)
	}
	tr.end(len(keys))
	tr.begin("bcontainer.HashMap.Find")
	for i, k := range localKeys {
		if _, ok := bcs[i].Find(k); ok {
			sink++
		}
	}
	tr.end(len(localKeys))
	return sink
}
