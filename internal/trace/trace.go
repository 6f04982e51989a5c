// Package trace implements causal, per-invocation distributed tracing
// for the Legion invocation pipeline. A trace follows one logical
// method invocation across every hop of the §4.1 binding chain —
// caller send, binding-cache lookup, Binding Agent resolution, class
// lookup and Magistrate activation, host dispatch, and server-side
// method execution. Identifiers ride in the wire envelope
// (Env.TraceID/SpanID/ParentSpanID), so a trace is causal across
// nodes with no side channel.
//
// The design goal is a fast path that stays fast:
//
//   - A disabled tracer costs one atomic pointer load per call.
//   - Root spans are sampled 1-in-N (SampleEvery); an unsampled root
//     costs one atomic add. Child spans of a sampled trace are always
//     recorded, so a sampled trace is complete across hops.
//   - Finished spans land in a fixed-size Ring of atomic pointers; no
//     lock is taken on the record path and memory is bounded.
//   - All *Tracer and *Span methods are nil-receiver safe, so call
//     sites in the runtime are unconditional.
package trace

import (
	"context"
	"sync/atomic"
	"time"
)

// SpanContext is the propagated identity of a span: enough to parent a
// child on another node. The zero value means "not traced".
type SpanContext struct {
	TraceID      uint64
	SpanID       uint64
	ParentSpanID uint64
}

// Valid reports whether sc belongs to a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// Event is a point-in-time annotation on a span: a cache hit, a retry
// wave, a breaker skip, a deadline rejection.
type Event struct {
	When time.Time
	Name string // short machine-ish key, e.g. "cache", "retry"
	Msg  string // human detail, e.g. "miss", "wave 2 of 3"
}

// Span is one timed hop of an invocation. Spans are mutated only by
// the goroutine that started them; once Finish is called the span is
// published to the tracer's ring and must not be written again.
type Span struct {
	tracer *Tracer
	sc     SpanContext

	Kind      string // "call" (client side) or "serve" (object side)
	Name      string // method or operation name
	Component string // node or object label that did the work
	Start     time.Time
	End       time.Time
	Outcome   string // wire code string, or error text
	Events    []Event
}

// Context returns the span's propagatable identity. Safe on nil.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Event records a point-in-time annotation. Safe on nil.
func (s *Span) Event(name, msg string) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{When: time.Now(), Name: name, Msg: msg})
}

// Finish stamps the end time and outcome and publishes the span to its
// tracer's ring. Safe on nil.
func (s *Span) Finish(outcome string) {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.Outcome = outcome
	s.tracer.record(s)
}

// Duration is End-Start for finished spans.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.End.Sub(s.Start)
}

// DefaultSampleEvery is the default root-sampling rate: one traced
// invocation per this many roots.
const DefaultSampleEvery = 64

// spanRing is the number of finished spans a Tracer retains.
const spanRing = 4096

// Config parameterizes a Tracer.
type Config struct {
	// SampleEvery samples one root span per SampleEvery Root calls.
	// 1 traces everything; 0 means DefaultSampleEvery.
	SampleEvery int
}

// Tracer hands out spans and retains the most recent finished ones in
// a fixed ring. One Tracer is typically shared by every node in a
// process so a multi-hop trace can be assembled locally.
type Tracer struct {
	sampleEvery uint64
	rootSeq     atomic.Uint64 // counts Root calls, drives sampling
	idSeq       atomic.Uint64 // unique span/trace ids
	ring        *Ring[Span]
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	return &Tracer{
		sampleEvery: uint64(cfg.SampleEvery),
		ring:        NewRing[Span](spanRing),
	}
}

// nextID returns a fresh nonzero identifier.
func (t *Tracer) nextID() uint64 { return t.idSeq.Add(1) }

// Root starts a new trace if this call is sampled, returning nil
// otherwise. kind/name/component describe the hop. Safe on nil.
//
// The sampling counter here is shared tracer-wide; hot paths with many
// concurrent root starters (rt.Caller) keep their own counter against
// SampleEvery and call RootAlways, so unsampled calls never contend on
// one cache line.
func (t *Tracer) Root(kind, name, component string) *Span {
	if t == nil {
		return nil
	}
	if t.rootSeq.Add(1)%t.sampleEvery != 0 {
		return nil
	}
	return t.RootAlways(kind, name, component)
}

// SampleEvery returns the tracer's root-sampling interval, for callers
// implementing their own (e.g. per-caller) sampling counter. Returns 0
// on nil.
func (t *Tracer) SampleEvery() uint64 {
	if t == nil {
		return 0
	}
	return t.sampleEvery
}

// RootAlways starts a root span unconditionally, bypassing sampling —
// the caller has already made the sampling decision. Safe on nil.
func (t *Tracer) RootAlways(kind, name, component string) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID()
	return &Span{
		tracer:    t,
		sc:        SpanContext{TraceID: id, SpanID: id},
		Kind:      kind,
		Name:      name,
		Component: component,
		Start:     time.Now(),
	}
}

// Child starts a span under parent. A child of an invalid parent is
// not traced (returns nil); children of sampled traces are always
// recorded. Safe on nil.
func (t *Tracer) Child(parent SpanContext, kind, name, component string) *Span {
	if t == nil || !parent.Valid() {
		return nil
	}
	return &Span{
		tracer: t,
		sc: SpanContext{
			TraceID:      parent.TraceID,
			SpanID:       t.nextID(),
			ParentSpanID: parent.SpanID,
		},
		Kind:      kind,
		Name:      name,
		Component: component,
		Start:     time.Now(),
	}
}

// record publishes a finished span into the ring. Safe on nil.
func (t *Tracer) record(s *Span) {
	if t == nil {
		return
	}
	t.ring.Put(s)
}

// Spans returns every finished span currently retained, oldest-first
// in ring order (approximately finish order).
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Ring returns the span ring, for reporting its capacity and
// overwrites; nil on a nil tracer.
func (t *Tracer) Ring() *Ring[Span] {
	if t == nil {
		return nil
	}
	return t.ring
}

// Trace returns every retained span of one trace.
func (t *Tracer) Trace(traceID uint64) []*Span {
	var out []*Span
	for _, s := range t.Spans() {
		if s.sc.TraceID == traceID {
			out = append(out, s)
		}
	}
	return out
}

// TraceIDs returns the distinct trace ids currently retained,
// newest-first (by most recent recorded span).
func (t *Tracer) TraceIDs() []uint64 {
	spans := t.Spans()
	seen := make(map[uint64]bool, len(spans))
	var out []uint64
	for i := len(spans) - 1; i >= 0; i-- {
		id := spans[i].sc.TraceID
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// spanCarrier is implemented by contexts that hold a SpanContext
// natively (the runtime's allocation-light invocation context).
type spanCarrier interface{ TraceSpanContext() SpanContext }

type ctxKeyT struct{}

var ctxKey ctxKeyT

// NewContext returns a context carrying sc. An invalid sc returns
// parent unchanged.
func NewContext(parent context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return parent
	}
	return context.WithValue(parent, ctxKey, sc)
}

// FromContext extracts the SpanContext carried by ctx, or the zero
// value. It first checks for a native carrier to avoid Value-chain
// walks on the invocation fast path.
func FromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	if c, ok := ctx.(spanCarrier); ok {
		return c.TraceSpanContext()
	}
	sc, _ := ctx.Value(ctxKey).(SpanContext)
	return sc
}
