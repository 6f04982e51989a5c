package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded from the benchmark's own files, around its calls
// into each layer's public functions; nothing is added inside
// internal/. A recorder belongs to one goroutine (one caller, or the
// cycle driver), so begin/end take no lock; spans of one generated op
// share its op id.

// span is one timed interval. Seq numbers are per recorder; Parent is
// the Seq of the enclosing span on the same recorder, or -1.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Seq    int64  `json:"seq"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the run epoch
	End    int64  `json:"end_ns"`
}

// spanRingCap bounds a recorder's memory: it keeps the most recent
// spans only, so tracing costs the same per op for the whole run while
// the trace file stays small.
const spanRingCap = 1 << 14

type recorder struct {
	epoch time.Time
	ring  []span
	n     int64
	stack []int64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, ring: make([]span, spanRingCap)}
}

// begin opens a span as a child of the innermost open one. A nil
// recorder (tracing off) is a no-op so call sites need no branches.
func (r *recorder) begin(name string, op uint64) {
	if r == nil {
		return
	}
	parent := int64(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	seq := r.n
	r.n++
	r.ring[seq%spanRingCap] = span{Name: name, Op: op, Seq: seq, Parent: parent, Start: int64(time.Since(r.epoch))}
	r.stack = append(r.stack, seq)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	seq := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.ring[seq%spanRingCap].End = int64(time.Since(r.epoch))
}

// spans returns the retained, closed spans in start order, dropping any
// whose ancestor the ring has already overwritten: every span returned
// has its whole parent chain present.
func (r *recorder) spans() []span {
	if r == nil {
		return nil
	}
	first := r.n - spanRingCap
	if first < 0 {
		first = 0
	}
	orphan := make(map[int64]bool)
	var out []span
	for seq := first; seq < r.n; seq++ {
		s := r.ring[seq%spanRingCap]
		if s.End == 0 || (s.Parent >= 0 && (s.Parent < first || orphan[s.Parent])) {
			orphan[seq] = true
			continue
		}
		out = append(out, s)
	}
	return out
}

// selfTimes returns, per span Seq, the span's duration minus the part of
// its interval that its direct children cover. Children may overlap one
// another (parallel parts) or stick out of the parent; the covered part
// is the union of the child intervals clipped to the parent, so nothing
// is subtracted twice.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.Seq]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Seq] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary is the per-name digest of a trace that goes into the
// results JSON.
type spanSummary struct {
	Count     int     `json:"count"`
	P50Us     float64 `json:"p50_us"`
	SelfP50Us float64 `json:"self_p50_us"`
}

// summarize folds the spans of several recorders into per-name medians
// of duration and self time.
func summarize(groups ...[]span) map[string]spanSummary {
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, g := range groups {
		self := selfTimes(g)
		for _, s := range g {
			durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
			selfs[s.Name] = append(selfs[s.Name], float64(self[s.Seq])/1e3)
		}
	}
	out := make(map[string]spanSummary, len(durs))
	for name, d := range durs {
		out[name] = spanSummary{Count: len(d), P50Us: median(d), SelfP50Us: median(selfs[name])}
	}
	return out
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload  string            `json:"workload"`
	Recorders map[string][]span `json:"recorders"`
}

func writeTrace(path, workload string, recorders map[string][]span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Recorders: recorders})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
