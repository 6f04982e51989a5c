package obs

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
)

// slowCall is the serve latency above which a call is logged to the
// flight recorder.
const slowCall = 10 * time.Millisecond

// NodeObserver implements rt.Observer: it turns serve-path completions
// into SLO-grade per-method and per-component latency histograms (with
// trace exemplars) and feeds the flight recorder. One observer is
// shared by every node of a process.
//
// ServeDone runs on dispatch goroutines, so it allocates nothing in
// steady state: histogram handles are interned in sync.Maps keyed by
// the (wire-interned) method and component strings, and the histograms
// themselves are lock-free.
type NodeObserver struct {
	reg *metrics.Registry
	rec *Recorder

	methods sync.Map // method string -> *metrics.Histogram ("method/<m>")
	comps   sync.Map // component string -> *metrics.Histogram ("lat/<c>")
}

// NewNodeObserver builds an observer recording into reg and rec.
func NewNodeObserver(reg *metrics.Registry, rec *Recorder) *NodeObserver {
	if reg == nil {
		reg = metrics.Nop
	}
	return &NodeObserver{reg: reg, rec: rec}
}

// Recorder returns the observer's flight recorder.
func (ob *NodeObserver) Recorder() *Recorder { return ob.rec }

func (ob *NodeObserver) methodHist(m string) *metrics.Histogram {
	if v, ok := ob.methods.Load(m); ok {
		return v.(*metrics.Histogram)
	}
	h := ob.reg.Histogram("method/" + m)
	ob.methods.Store(m, h)
	return h
}

func (ob *NodeObserver) compHist(c string) *metrics.Histogram {
	if v, ok := ob.comps.Load(c); ok {
		return v.(*metrics.Histogram)
	}
	h := ob.reg.Histogram("lat/" + c)
	ob.comps.Store(c, h)
	return h
}

// ServeDone records one completed dispatch (rt.Observer).
func (ob *NodeObserver) ServeDone(component, method string, d time.Duration, traceID uint64) {
	ob.methodHist(method).ObserveExemplar(d, traceID)
	ob.compHist(component).ObserveExemplar(d, traceID)
	if d >= slowCall {
		// Slow calls are rare by construction; the detail string
		// allocation is off the common path.
		ob.rec.Record(KindSlowCall, component, method+" took "+d.Round(time.Microsecond).String(), traceID)
	}
}

// Note records a flight-recorder event (rt.Observer).
func (ob *NodeObserver) Note(kind, object, detail string, traceID uint64) {
	ob.rec.Record(kind, object, detail, traceID)
}

// formatTrace renders a trace or span ID as 16 hex digits, the form
// the spans table's trace, span and parent columns use.
func formatTrace(id uint64) string {
	if id == 0 {
		return ""
	}
	s := strconv.FormatUint(id, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}
