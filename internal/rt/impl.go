// Package rt is the Legion object runtime: it gives each active object
// an address-space-disjoint existence (a mailbox and a dispatch
// goroutine reachable only through a transport endpoint), implements
// non-blocking method invocation with futures (§2), provides the
// object-mandatory member functions (§2.1: MayI, Iam, SaveState,
// RestoreState, GetInterface), and contains the "Legion-aware
// communication layer" of §4.1.2 — a per-object binding cache with
// stale-binding detection and refresh (§4.1.4).
package rt

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/idl"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Invocation describes one incoming method call as seen by an object
// implementation.
//
// An Invocation is lent to the Impl: inv, inv.Args and the context
// inv.Ctx returns are valid until Dispatch returns. The runtime then
// zeroes them and reuses their storage for a later call, so a handler
// that keeps any of them longer, or hands one to a goroutine that
// outlives the call, must copy what it needs first.
type Invocation struct {
	Method string
	// Args are borrowed views into the request's transport buffer:
	// valid only until the handler returns (results may alias them —
	// the reply is marshaled before the frame is released). A handler
	// that stores an argument past return, or hands it to another
	// goroutine, must copy it first.
	Args [][]byte
	// Env is the security environment triple the call is performed in
	// (§2.4).
	Env wire.Env
	// Obj is the runtime handle of the receiving object; handlers use
	// it to reach their own LOID and Caller.
	Obj *Object
	// Deadline is the caller's propagated absolute deadline (zero when
	// the caller set none). Handlers that invoke other objects should
	// pass inv.Ctx() to CallCtx so nested hops inherit the remaining
	// budget instead of arming independent full timers.
	Deadline time.Time
	// Trace is the invocation's distributed-tracing identity: the
	// serving span's context when this node records spans, otherwise
	// the caller's identity straight from the wire envelope (so a node
	// without a tracer still propagates the trace downstream). Zero
	// when the invocation is untraced.
	Trace trace.SpanContext
	// Span is the serve span covering this method execution (nil when
	// untraced or unsampled); handlers may attach events to it.
	Span *trace.Span

	// ctx is the context Ctx returns, kept beside the Invocation by the
	// runtime; nil for an Invocation built by hand.
	ctx *invCtx
}

// Ctx returns a context carrying the invocation's propagated deadline
// and trace identity (context.Background-equivalent when neither was
// set). It is timer-free and needs no cancel: both are immutable state,
// not resources. Like the Invocation, it is valid until Dispatch
// returns.
func (inv *Invocation) Ctx() context.Context {
	if inv.ctx != nil {
		return inv.ctx
	}
	c := invCtx{t: inv.Deadline, sc: inv.Trace}
	if inv.Obj != nil {
		c.clk = inv.Obj.node.clk // nil on the wall clock
	}
	return c
}

// invCtx is an allocation-light context.Context carrying only an
// absolute deadline and a trace identity. Unlike context.WithDeadline
// it arms no timer and has nothing to cancel, so it can be minted per
// invocation for free.
type invCtx struct {
	t   time.Time
	sc  trace.SpanContext
	clk clock.Clock // nil = wall; set when the serving node runs virtual
}

func (d invCtx) Deadline() (time.Time, bool) { return d.t, !d.t.IsZero() }
func (d invCtx) Done() <-chan struct{}       { return nil }
func (d invCtx) Value(any) any               { return nil }
func (d invCtx) Err() error {
	if d.t.IsZero() {
		return nil
	}
	now := time.Now()
	if d.clk != nil {
		now = d.clk.Now()
	}
	if !now.Before(d.t) {
		return context.DeadlineExceeded
	}
	return nil
}

// TraceSpanContext lets trace.FromContext read the carried identity
// without a Value-chain walk.
func (d invCtx) TraceSpanContext() trace.SpanContext { return d.sc }

// Arg returns argument i or an error mentioning the method, keeping
// handler argument unpacking terse.
func (inv *Invocation) Arg(i int) ([]byte, error) {
	if i >= len(inv.Args) {
		return nil, fmt.Errorf("%s: missing argument %d (have %d)", inv.Method, i, len(inv.Args))
	}
	return inv.Args[i], nil
}

// Handler implements one member function. A non-nil error is reported
// to the caller as an application error (wire.ErrApp). The returned
// result slices may alias inv.Args (zero-copy echo is legal): the
// runtime marshals the reply before releasing the request frame.
type Handler func(inv *Invocation) ([][]byte, error)

// Impl is the behaviour of a Legion object. The runtime supplies the
// object-mandatory member functions around it: MayI is enforced before
// Dispatch; Iam, Ping and GetInterface are answered from the runtime;
// SaveState/RestoreState are routed to the Impl.
type Impl interface {
	// Interface describes the exported member functions.
	Interface() *idl.Interface
	// Dispatch runs one method. Unknown methods must return
	// ErrNoSuchMethod (wrapped or direct).
	Dispatch(inv *Invocation) ([][]byte, error)
	// SaveState serializes the object's state for an Object Persistent
	// Representation (§3.1.1).
	SaveState() ([]byte, error)
	// RestoreState reinitializes the object from a SaveState blob. The
	// blob is borrowed for the call (a host's StartObjects passes bytes
	// of its request frame): an implementation copies what it keeps.
	RestoreState(state []byte) error
}

// Binder is an optional Impl extension: implementations that need to
// invoke other objects receive their runtime handle at spawn time.
type Binder interface {
	Bind(o *Object)
}

// Stopper is an optional Impl extension: implementations with
// background resources are told when their object is torn down.
type Stopper interface {
	Stop()
}

// ErrNoSuchMethod is returned by Dispatch for unknown methods.
type NoSuchMethodError struct{ Method string }

func (e *NoSuchMethodError) Error() string { return fmt.Sprintf("no such method %q", e.Method) }

// Behavior is a map-based Impl for objects defined as a set of handler
// functions. Save/Restore may be nil for stateless objects.
type Behavior struct {
	Iface    *idl.Interface
	Handlers map[string]Handler
	Save     func() ([]byte, error)
	Restore  func(state []byte) error
	// OnBind, if set, receives the runtime handle at spawn time.
	OnBind func(o *Object)
}

// Interface implements Impl.
func (b *Behavior) Interface() *idl.Interface { return b.Iface }

// Dispatch implements Impl.
func (b *Behavior) Dispatch(inv *Invocation) ([][]byte, error) {
	h, ok := b.Handlers[inv.Method]
	if !ok {
		return nil, &NoSuchMethodError{Method: inv.Method}
	}
	return h(inv)
}

// SaveState implements Impl.
func (b *Behavior) SaveState() ([]byte, error) {
	if b.Save == nil {
		return nil, nil
	}
	return b.Save()
}

// RestoreState implements Impl.
func (b *Behavior) RestoreState(state []byte) error {
	if b.Restore == nil {
		return nil
	}
	return b.Restore(state)
}

// Bind implements Binder.
func (b *Behavior) Bind(o *Object) {
	if b.OnBind != nil {
		b.OnBind(o)
	}
}
