package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// spanCap bounds the spans one location keeps for the trace file; spans past
// it still count in the per-name totals.
const spanCap = 1 << 16

// span is one recorded call: a name, its interval in nanoseconds since the
// trace origin, and the span that was open around it (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Loc    int    `json:"loc"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal folds every span of one name: how many there were, how many
// units of work they covered, their summed duration and self time (duration
// minus the part covered by child spans).
type spanTotal struct {
	Count, Units, TotalNs, SelfNs int64
}

type openSpan struct {
	id, start, child int64
	name             string
}

// tracer records the spans of one location.  It is used only from that
// location's SPMD goroutine.  A nil *tracer records nothing, which is how an
// untraced run calls it.
type tracer struct {
	loc     int
	origin  time.Time
	next    int64
	open    []openSpan
	spans   []span
	dropped int64
	totals  map[string]*spanTotal
}

func newTracer(loc int, origin time.Time) *tracer {
	return &tracer{loc: loc, origin: origin, spans: make([]span, 0, spanCap), totals: map[string]*spanTotal{}}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.next++
	t.open = append(t.open, openSpan{id: int64(t.loc)<<48 | t.next, start: int64(time.Since(t.origin)), name: name})
}

// end closes the innermost open span, which covered units units of work.
func (t *tracer) end(units int) {
	if t == nil {
		return
	}
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.close(o, int64(time.Since(t.origin)), units)
}

// record adds a span the caller already timed.
func (t *tracer) record(name string, start time.Time, d time.Duration, units int) {
	if t == nil {
		return
	}
	t.next++
	s := int64(start.Sub(t.origin))
	t.close(openSpan{id: int64(t.loc)<<48 | t.next, start: s, name: name}, s+int64(d), units)
}

func (t *tracer) close(o openSpan, end int64, units int) {
	dur := end - o.start
	var parent int64
	if n := len(t.open); n > 0 {
		t.open[n-1].child += dur
		parent = t.open[n-1].id
	}
	tot := t.totals[o.name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[o.name] = tot
	}
	tot.Count++
	tot.Units += int64(units)
	tot.TotalNs += dur
	tot.SelfNs += dur - o.child
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, span{ID: o.id, Parent: parent, Loc: t.loc, Name: o.name, Start: o.start, End: end})
	} else {
		t.dropped++
	}
}

// mergeTotals folds the per-name totals of every location.
func mergeTotals(ts []*tracer) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, t := range ts {
		if t == nil {
			continue
		}
		for name, v := range t.totals {
			o := out[name]
			o.Count += v.Count
			o.Units += v.Units
			o.TotalNs += v.TotalNs
			o.SelfNs += v.SelfNs
			out[name] = o
		}
	}
	return out
}

// perUnit returns the mean duration per unit of work of the named spans, in
// nanoseconds (0 when there were none).
func perUnit(totals map[string]spanTotal, name string) float64 {
	t := totals[name]
	if t.Units == 0 {
		return 0
	}
	return float64(t.TotalNs) / float64(t.Units)
}

// writeTrace writes every kept span as one JSON line to
// <dir>/<workload>-seed<seed>.jsonl and returns the file's path.
func writeTrace(dir, workload string, seed int64, ts []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimeTable renders the per-name totals, largest self time first.
func selfTimeTable(totals map[string]spanTotal) []string {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return totals[names[i]].SelfNs > totals[names[j]].SelfNs })
	out := []string{fmt.Sprintf("%-34s %10s %12s %12s %12s", "span", "count", "units", "total_ms", "self_ms")}
	for _, n := range names {
		t := totals[n]
		out = append(out, fmt.Sprintf("%-34s %10d %12d %12.3f %12.3f", n, t.Count, t.Units, float64(t.TotalNs)/1e6, float64(t.SelfNs)/1e6))
	}
	return out
}
