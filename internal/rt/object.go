package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Object is the runtime handle of one active Legion object: its LOID,
// its behaviour, its security policy, and its mailbox. Methods execute
// sequentially on the object's own goroutine; the mailbox accepts
// messages in any order while a method runs (§2).
type Object struct {
	node        *Node
	self        loid.LOID
	impl        Impl
	policy      security.Policy
	label       string
	caller      *Caller
	concurrency int

	// inline marks the object for inline dispatch (WithInlineDispatch):
	// requests run on the delivering goroutine instead of being handed
	// to the mailbox.
	inline bool
	// dmu serializes dispatch for single-worker objects whose methods
	// may run off the mailbox goroutine (inline dispatch, co-resident
	// bypass), preserving the one-method-at-a-time model.
	dmu sync.Mutex

	// cReq is the interned "req/<label>" counter (nil when unlabeled),
	// so serving a request never builds a metric name string.
	cReq *metrics.Counter

	// muts counts dispatches that may have changed the object's state
	// (application methods and RestoreState, not runtime reads like
	// Ping or SaveState). Checkpointers compare it across rounds to
	// skip idle objects.
	muts atomic.Uint64

	mailbox mailbox
}

// SpawnOption configures an object at spawn time.
type SpawnOption func(*Object)

// WithPolicy installs the object's MayI policy (default: allow all —
// "these functions may default to empty for the case of no security",
// §2.4).
func WithPolicy(p security.Policy) SpawnOption {
	return func(o *Object) { o.policy = p }
}

// WithLabel names the object in metrics; each served request increments
// the counter "req/<label>".
func WithLabel(label string) SpawnOption {
	return func(o *Object) { o.label = label }
}

// WithCaller installs a pre-configured communication layer (binding
// cache size, resolver, timeouts).
func WithCaller(c *Caller) SpawnOption {
	return func(o *Object) { o.caller = c }
}

// WithConcurrency runs n dispatch workers instead of one. The default
// single worker gives user objects the simple sequential model; core
// service objects (classes, Magistrates, Binding Agents, Host Objects)
// are internally synchronized and run concurrently so that a service
// call that itself invokes another object does not stall the mailbox —
// without this, mutually-waiting service objects could distributedly
// deadlock. The Impl must be safe for concurrent Dispatch.
func WithConcurrency(n int) SpawnOption {
	return func(o *Object) { o.concurrency = n }
}

// WithInlineDispatch opts the object into inline dispatch: incoming
// requests execute directly on the delivering goroutine — the sender's
// own goroutine for co-resident and in-memory-fabric callers, the read
// loop for TCP — instead of being queued to the mailbox. This removes
// every goroutine handoff from the invocation path and is what makes a
// cached-binding call "as close to a raw message send as possible"
// (§5.2.1).
//
// The option is ONLY for leaf methods: fast, non-blocking handlers
// that invoke no other objects. A method that blocks holds the
// delivering goroutine hostage — the caller's timeout machinery sits
// below it on the same stack and cannot fire — and a method that makes
// nested calls can deadlock the transport (its reply may need the very
// read loop the method is occupying). Single-worker objects keep their
// sequential model: inline dispatches are serialized with a mutex.
// Objects spawned with WithConcurrency run inline dispatches
// concurrently, exactly like their mailbox workers would.
func WithInlineDispatch() SpawnOption {
	return func(o *Object) { o.inline = true }
}

// LOID returns the object's name.
func (o *Object) LOID() loid.LOID { return o.self }

// Node returns the hosting node.
func (o *Object) Node() *Node { return o.node }

// Impl returns the object's behaviour (used by co-located runtime
// components such as Host Objects during deactivation).
func (o *Object) Impl() Impl { return o.impl }

// Caller returns the object's communication layer.
func (o *Object) Caller() *Caller { return o.caller }

// Mutations returns the object's dirty clock: the count of dispatched
// calls that may have changed its state. A checkpointer that remembers
// the value from its last round can tell an idle object (equal clock —
// nothing to save) from a dirty one without touching the Impl.
func (o *Object) Mutations() uint64 { return o.muts.Load() }

// QueueLen is the object's current mailbox backlog — one term of the
// Host Object's load vector.
func (o *Object) QueueLen() int { return o.mailbox.len() }

// SetPolicy replaces the object's MayI policy at run time.
func (o *Object) SetPolicy(p security.Policy) { o.policy = p }

// loop is one dispatch worker; Spawn starts o.concurrency of them.
func (o *Object) loop() {
	for f := o.mailbox.get(); f != nil; f = o.mailbox.get() {
		o.serve(f)
		f.Close()
	}
}

// serveInline runs one request on the delivering goroutine (see
// WithInlineDispatch). Single-worker objects are serialized with the
// dispatch mutex so inline deliveries from concurrent senders keep the
// one-method-at-a-time model.
func (o *Object) serveInline(f *wire.Frame) {
	if o.concurrency <= 1 {
		o.dmu.Lock()
		defer o.dmu.Unlock()
	}
	o.serve(f)
}

// serveRec is the scratch one dispatch runs on: the Invocation the Impl
// sees, the context its Ctx returns, and the first inlineArgs argument
// views. serve and serveLocal take one per call and zero and return it
// once the reply no longer needs it, so a served call allocates none of
// them and no object or worker holds one between calls.
type serveRec struct {
	inv  Invocation
	ctx  invCtx
	args [inlineArgs][]byte
}

// inlineArgs is how many argument views a serve record holds; a request
// with more spills one slice to the heap.
const inlineArgs = 8

var servePool = sync.Pool{New: func() any { return new(serveRec) }}

func getServeRec() *serveRec { return servePool.Get().(*serveRec) }

// release zeroes r, so nothing it pointed at stays reachable through the
// pool, and recycles it.
func (r *serveRec) release() {
	*r = serveRec{}
	servePool.Put(r)
}

// serve runs one framed request. The frame is borrowed: its bytes stay
// valid for the duration of the call (including marshalling the reply,
// which copies any results that alias the request), and the caller
// closes it after serve returns.
func (o *Object) serve(f *wire.Frame) {
	o.node.served.Add(1)
	if o.cReq != nil {
		o.cReq.Inc()
	}
	method := f.Method()
	tid := f.TraceID()
	// An installed observer gets per-method serve latency; when absent
	// (the default, and all benchmarks) the cost is one atomic load.
	var ob Observer
	var start time.Time
	if p := o.node.observer.Load(); p != nil {
		ob = *p
		start = o.node.now()
	}
	// A traced request grows a serve span covering the whole method
	// execution on this object; children of a sampled trace are always
	// recorded so the trace is complete across hops. Untraced messages
	// pay only the TraceID comparison.
	var span *trace.Span
	if tid != 0 {
		span = o.node.tracer.Load().Child(
			trace.SpanContext{TraceID: tid, SpanID: f.SpanID()},
			"serve", method, o.component())
	}
	// A request whose propagated deadline already expired is not worth
	// running: the caller has given up, and the answer — if one is
	// still listening — is definitive either way.
	if dl := f.Deadline(); dl != 0 && o.node.now().UnixNano() > dl {
		if span != nil {
			span.Event("deadline", "expired before dispatch")
			span.Finish(wire.ErrDeadlineExceeded.String())
		}
		if f.Kind == wire.KindRequest && f.HasReplyTo() {
			o.node.replyFrame(f, wire.ErrDeadlineExceeded, "deadline expired before dispatch", nil)
		}
		if ob != nil {
			ob.ServeDone(o.component(), method, o.node.since(start), tid)
		}
		return
	}
	r := getServeRec()
	r.inv.Env = f.Env()
	if f.NumArgs() > 0 {
		r.inv.Args = f.ArgViews(r.args[:0])
	}
	code, errText, results := o.safeDispatch(r, method, span)
	if span != nil {
		if errText != "" {
			span.Event("error", errText)
		}
		span.Finish(code.String())
	}
	if f.Kind == wire.KindRequest && f.HasReplyTo() {
		o.node.replyFrame(f, code, errText, results)
	}
	// The results may alias r.args (an echo); the reply is marshalled.
	r.release()
	if ob != nil {
		ob.ServeDone(o.component(), method, o.node.since(start), tid)
	}
}

// serveLocal is the co-resident bypass: the caller's goroutine runs
// the method directly — no marshal, no transport, no correlation id —
// and builds the Result in place. Semantics mirror serve: per-object
// metrics, the serve span, deadline rejection, MayI, and panic
// confinement all apply identically.
func (o *Object) serveLocal(method string, env *wire.Env, args [][]byte) *Result {
	if o.concurrency <= 1 {
		o.dmu.Lock()
		defer o.dmu.Unlock()
	}
	o.node.served.Add(1)
	if o.cReq != nil {
		o.cReq.Inc()
	}
	var ob Observer
	var start time.Time
	if p := o.node.observer.Load(); p != nil {
		ob = *p
		start = o.node.now()
	}
	var span *trace.Span
	if env.TraceID != 0 {
		span = o.node.tracer.Load().Child(
			trace.SpanContext{TraceID: env.TraceID, SpanID: env.SpanID},
			"serve", method, o.component())
	}
	if env.Deadline != 0 && o.node.now().UnixNano() > env.Deadline {
		if span != nil {
			span.Event("deadline", "expired before dispatch")
			span.Finish(wire.ErrDeadlineExceeded.String())
		}
		if ob != nil {
			ob.ServeDone(o.component(), method, o.node.since(start), env.TraceID)
		}
		return &Result{Code: wire.ErrDeadlineExceeded, ErrText: "deadline expired before dispatch", From: o.node.Element()}
	}
	r := getServeRec()
	r.inv.Env = *env
	r.inv.Args = args // the caller's own slice: results that alias it outlive r
	code, errText, results := o.safeDispatch(r, method, span)
	r.release()
	if span != nil {
		if errText != "" {
			span.Event("error", errText)
		}
		span.Finish(code.String())
	}
	if ob != nil {
		ob.ServeDone(o.component(), method, o.node.since(start), env.TraceID)
	}
	return &Result{Code: code, ErrText: errText, Results: results, From: o.node.Element()}
}

// component names this object in trace spans: its metric label when it
// has one, else the hosting node's name.
func (o *Object) component() string {
	if o.label != "" {
		return o.label
	}
	return o.node.name
}

// safeDispatch runs dispatch with panic confinement: a panicking
// method is reported to the caller as an application error and counted
// as an object exception, rather than taking the whole node down —
// the runtime-level half of the Host Object's duty to "report object
// exceptions" (§2.3).
func (o *Object) safeDispatch(r *serveRec, method string, span *trace.Span) (code wire.Code, errText string, results [][]byte) {
	defer func() {
		if p := recover(); p != nil {
			o.node.cExcept.Inc()
			code, errText, results = wire.ErrApp, fmt.Sprintf("object exception in %s: %v", method, p), nil
		}
	}()
	return o.dispatch(r, method, span)
}

// dispatch enforces MayI, answers runtime-provided member functions,
// and routes the rest to the Impl. r carries the call's environment and
// arguments (borrowed views of the request frame, valid until the reply
// has been marshalled); dispatch completes r.inv before handing it on.
func (o *Object) dispatch(r *serveRec, method string, span *trace.Span) (wire.Code, string, [][]byte) {
	env, args := &r.inv.Env, r.inv.Args
	// Every method invocation is performed in the (RA, SA, CA)
	// environment and checked by the object's MayI (§2.4). MayI itself
	// is always answerable so callers can probe their own access.
	if o.policy != nil && method != "MayI" {
		if err := o.policy.MayI(*env, method); err != nil {
			return wire.ErrDenied, err.Error(), nil
		}
	}
	switch method {
	case "Ping":
		return wire.OK, "", nil
	case "Iam":
		return wire.OK, "", [][]byte{security.Identity{LOID: o.self}.Encode()}
	case "MayI":
		// MayI(method) returns whether the calling environment could
		// invoke the named method.
		if len(args) != 1 {
			return wire.ErrBadRequest, "MayI needs one argument", nil
		}
		if o.policy != nil {
			if err := o.policy.MayI(*env, wire.AsString(args[0])); err != nil {
				return wire.OK, "", [][]byte{wire.Bool(false), wire.String(err.Error())}
			}
		}
		return wire.OK, "", [][]byte{wire.Bool(true), wire.String("")}
	case "GetInterface":
		return wire.OK, "", [][]byte{o.FullInterface().Marshal(nil)}
	case "SaveState":
		state, err := o.impl.SaveState()
		if err != nil {
			return wire.ErrApp, err.Error(), nil
		}
		return wire.OK, "", [][]byte{state}
	case "RestoreState":
		if len(args) != 1 {
			return wire.ErrBadRequest, "RestoreState needs one argument", nil
		}
		// The state outlives the frame the argument aliases; copy it
		// before handing it to the Impl.
		state := append([]byte(nil), args[0]...)
		if err := o.impl.RestoreState(state); err != nil {
			return wire.ErrApp, err.Error(), nil
		}
		o.muts.Add(1)
		return wire.OK, "", nil
	}
	o.muts.Add(1)
	inv := &r.inv
	inv.Method, inv.Obj, inv.Span = method, o, span
	if env.Deadline != 0 {
		inv.Deadline = time.Unix(0, env.Deadline)
	}
	if span != nil {
		inv.Trace = span.Context()
	} else if env.TraceID != 0 {
		// No tracer on this node: keep propagating the caller's
		// identity so downstream hops still join the trace.
		inv.Trace = trace.SpanContext{
			TraceID:      env.TraceID,
			SpanID:       env.SpanID,
			ParentSpanID: env.ParentSpanID,
		}
	}
	r.ctx = invCtx{t: inv.Deadline, sc: inv.Trace, clk: o.node.clk}
	inv.ctx = &r.ctx
	results, err := o.impl.Dispatch(inv)
	if err != nil {
		if _, ok := err.(*NoSuchMethodError); ok {
			return wire.ErrNoSuchMethod, err.Error(), nil
		}
		return wire.ErrApp, err.Error(), results
	}
	return wire.OK, "", results
}

// FullInterface is the object's complete exported interface: the
// object-mandatory member functions provided by the runtime plus the
// Impl's own (§2.1: "all Legion objects export a common set of
// object-mandatory member functions").
func (o *Object) FullInterface() *idl.Interface {
	full := ObjectMandatory().Clone("")
	if ifc := o.impl.Interface(); ifc != nil {
		full.Name = ifc.Name
		// The Impl may redefine mandatory functions; its signatures win.
		_ = full.Merge(ifc, idl.ConflictOverride)
	}
	return full
}

// stop deactivates the object; Kill and Close take it out of the
// node's table first, so it runs once per object.
func (o *Object) stop() {
	// Queued frames hold pooled buffers the workers will never serve;
	// release them.
	backlog := o.mailbox.close()
	for f := backlog.Pop(); f != nil; f = backlog.Pop() {
		f.Close()
	}
	if s, ok := o.impl.(Stopper); ok {
		s.Stop()
	}
}

var objectMandatoryOnce sync.Once
var objectMandatory *idl.Interface

// ObjectMandatory returns the interface every Legion object exports
// (§2.1): MayI, Iam, Ping, GetInterface, SaveState, RestoreState.
func ObjectMandatory() *idl.Interface {
	objectMandatoryOnce.Do(func() {
		objectMandatory = idl.NewInterface("LegionObject",
			idl.MethodSig{Name: "Ping"},
			idl.MethodSig{Name: "Iam", Returns: []idl.Param{{Name: "identity", Type: idl.TLOID}}},
			idl.MethodSig{Name: "MayI",
				Params:  []idl.Param{{Name: "method", Type: idl.TString}},
				Returns: []idl.Param{{Name: "allowed", Type: idl.TBool}, {Name: "reason", Type: idl.TString}}},
			idl.MethodSig{Name: "GetInterface", Returns: []idl.Param{{Name: "interface", Type: idl.TBytes}}},
			idl.MethodSig{Name: "SaveState", Returns: []idl.Param{{Name: "state", Type: idl.TBytes}}},
			idl.MethodSig{Name: "RestoreState", Params: []idl.Param{{Name: "state", Type: idl.TBytes}}},
		)
	})
	return objectMandatory
}
