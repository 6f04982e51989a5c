package obs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Report is the compact telemetry block a host piggybacks on its
// load-report heartbeat: changed counters (absolute values — the plane
// differences them), changed histogram snapshots (sparse nonzero
// buckets plus exemplars), and flight-recorder events the Magistrate
// has not yet seen. It is delta-filtered at the sender so an idle host
// ships a few bytes per epoch.
type Report struct {
	Counters []metrics.NamedValue
	Hists    []HistSnap
	Events   []Event
}

// HistSnap is one histogram's wire snapshot.
type HistSnap struct {
	Name      string
	Count     uint64
	Sum       time.Duration
	Buckets   []BucketCount
	Exemplars []metrics.Exemplar
}

// BucketCount is one occupied histogram bucket.
type BucketCount struct {
	Bucket int
	Count  uint64
}

// Stats converts the snapshot back into metrics.HistStats (percentiles
// recomputed from the shipped buckets).
func (hs *HistSnap) Stats() metrics.HistStats {
	var s metrics.HistStats
	s.Count = hs.Count
	s.Sum = hs.Sum
	for _, bc := range hs.Buckets {
		if bc.Bucket >= 0 && bc.Bucket < len(s.Buckets) {
			s.Buckets[bc.Bucket] = bc.Count
		}
	}
	s.Exemplars = append(s.Exemplars, hs.Exemplars...)
	s.Recompute()
	return s
}

// maxReportEvents caps the events section of one report; a host that
// logged more since the last heartbeat ships the newest ones (the
// older remain readable in the events table of the host's own plane).
const maxReportEvents = 64

const reportVersion = 1

// Marshal encodes the report.
func (rp *Report) Marshal() []byte {
	w := wire.NewWriter([]byte{reportVersion})
	w.Count64(len(rp.Counters))
	for _, c := range rp.Counters {
		w.Str64(c.Name)
		w.U64(c.Value)
	}
	w.Count64(len(rp.Hists))
	for _, h := range rp.Hists {
		w.Str64(h.Name)
		w.U64(h.Count)
		w.U64(uint64(h.Sum))
		w.Count64(len(h.Buckets))
		for _, bc := range h.Buckets {
			w.U64(uint64(bc.Bucket))
			w.U64(bc.Count)
		}
		w.Count64(len(h.Exemplars))
		for _, ex := range h.Exemplars {
			w.U64(uint64(ex.Bucket))
			w.U64(uint64(ex.Dur))
			w.U64(ex.TraceID)
		}
	}
	w.Count64(len(rp.Events))
	for _, e := range rp.Events {
		w.U64(e.Seq)
		w.U64(uint64(e.At.UnixNano()))
		w.Str64(e.Host)
		w.Str64(e.Kind)
		w.Str64(e.Object)
		w.Str64(e.Detail)
		w.U64(e.TraceID)
	}
	return w.Bytes()
}

// maxReportSection bounds every count in a report or table.
const maxReportSection = 1 << 20

// sectionCount reads a count of elements of at least minElemBytes
// each, capped at maxReportSection.
func sectionCount(r *wire.Reader, minElemBytes int, what string) int {
	n := r.Count64(minElemBytes)
	if n > maxReportSection {
		r.Fail(fmt.Errorf("obs: absurd %s count %d", what, n))
		return 0
	}
	return n
}

// UnmarshalReport decodes a report produced by Marshal.
func UnmarshalReport(b []byte) (*Report, error) {
	if len(b) == 0 || b[0] != reportVersion {
		return nil, fmt.Errorf("obs: bad report version")
	}
	r := wire.NewReader(b[1:])
	rp := &Report{}
	for i, n := 0, sectionCount(&r, 16, "counter"); i < n; i++ {
		name := r.Str64(wire.NoCap)
		rp.Counters = append(rp.Counters, metrics.NamedValue{Name: name, Value: r.U64()})
	}
	for i, n := 0, sectionCount(&r, 40, "histogram"); i < n; i++ {
		h := HistSnap{Name: r.Str64(wire.NoCap), Count: r.U64(), Sum: time.Duration(r.U64())}
		for j, nb := 0, sectionCount(&r, 16, "bucket"); j < nb; j++ {
			h.Buckets = append(h.Buckets, BucketCount{Bucket: int(r.U64()), Count: r.U64()})
		}
		for j, ne := 0, sectionCount(&r, 24, "exemplar"); j < ne; j++ {
			h.Exemplars = append(h.Exemplars, metrics.Exemplar{
				Bucket:  int(r.U64()),
				Dur:     time.Duration(r.U64()),
				TraceID: r.U64(),
			})
		}
		rp.Hists = append(rp.Hists, h)
	}
	for i, n := 0, sectionCount(&r, 56, "event"); i < n; i++ {
		rp.Events = append(rp.Events, Event{
			Seq:     r.U64(),
			At:      time.Unix(0, int64(r.U64())),
			Host:    r.Str64(wire.NoCap),
			Kind:    r.Str64(wire.NoCap),
			Object:  r.Str64(wire.NoCap),
			Detail:  r.Str64(wire.NoCap),
			TraceID: r.U64(),
		})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("obs: report: %w", err)
	}
	return rp, nil
}

// Telemetry builds the per-heartbeat reports one host piggybacks on
// ReportLoad. It remembers what it last shipped so unchanged counters
// and histograms (and already-sent events) are filtered out.
type Telemetry struct {
	reg *metrics.Registry
	rec *Recorder

	mu        sync.Mutex
	sentCount map[string]uint64 // counter name -> last shipped value
	sentHist  map[string]uint64 // hist name -> last shipped Count
	sentSeq   uint64            // events shipped through this Seq
}

// NewTelemetry builds a sender reading reg and rec. Configure it on a
// host ONLY when its registry is distinct from the plane's own —
// in-process (core-mode) hosts share the plane's registry and would
// double-count themselves.
func NewTelemetry(reg *metrics.Registry, rec *Recorder) *Telemetry {
	return &Telemetry{
		reg:       reg,
		rec:       rec,
		sentCount: make(map[string]uint64),
		sentHist:  make(map[string]uint64),
	}
}

// Report assembles and encodes the next delta report; nil-receiver
// safe (returns nil, meaning "no telemetry" on the wire).
func (t *Telemetry) Report() []byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var rp Report
	for _, c := range t.reg.Counters() {
		if t.sentCount[c.Name] != c.Value {
			t.sentCount[c.Name] = c.Value
			rp.Counters = append(rp.Counters, c)
		}
	}
	for _, nh := range t.reg.Histograms() {
		if t.sentHist[nh.Name] == nh.Stats.Count {
			continue
		}
		t.sentHist[nh.Name] = nh.Stats.Count
		hs := HistSnap{
			Name:      nh.Name,
			Count:     nh.Stats.Count,
			Sum:       nh.Stats.Sum,
			Exemplars: nh.Stats.Exemplars,
		}
		for i, n := range nh.Stats.Buckets {
			if n > 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{Bucket: i, Count: n})
			}
		}
		rp.Hists = append(rp.Hists, hs)
	}
	evs := t.rec.EventsSince(t.sentSeq)
	if len(evs) > maxReportEvents {
		evs = evs[len(evs)-maxReportEvents:]
	}
	if len(evs) > 0 {
		t.sentSeq = evs[len(evs)-1].Seq
		rp.Events = evs
	}
	return rp.Marshal()
}
