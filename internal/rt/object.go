package rt

import (
	"fmt"
	"math"
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
// its behaviour, its security policy, and its mailbox. The mailbox
// accepts messages in any order while a method runs (§2); methods
// execute one at a time, in per-sender FIFO order and behind any
// migration gate, on a dispatch goroutine the object holds only while
// its mailbox has requests to serve (dispatch.go), or on the goroutine
// of a same-process caller waiting on the reply (serveOne). Every
// request takes the mailbox; only an object spawned WithConcurrency
// above 1 also takes a co-resident caller's call on that caller's
// goroutine (Caller.serveCoResident). An idle object owns no goroutine.
type Object struct {
	node   *Node
	self   loid.LOID
	impl   Impl
	policy security.Policy
	label  string

	// caller is built on the object's first call-out (Caller); most
	// objects only ever answer calls. newRes, when set, makes the
	// resolver it gets.
	caller atomic.Pointer[Caller]
	newRes func(self loid.LOID) Resolver

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
	return func(o *Object) { o.caller.Store(c) }
}

// WithResolver gives the Caller the object builds on its first
// call-out the resolver newRes(self) makes. Without it (or WithCaller)
// that Caller has no resolver.
func WithResolver(newRes func(self loid.LOID) Resolver) SpawnOption {
	return func(o *Object) { o.newRes = newRes }
}

// WithConcurrency lets up to n dispatch goroutines drain the object's
// mailbox at once instead of one; none is started until requests wait.
// The default single drainer gives user objects the simple sequential
// model; core service objects (classes, Magistrates, Binding Agents,
// Host Objects) are internally synchronized and run concurrently so
// that a service call that itself invokes another object does not stall
// the mailbox — without this, mutually-waiting service objects could
// distributedly deadlock. The Impl must be safe for concurrent Dispatch.
func WithConcurrency(n int) SpawnOption {
	return func(o *Object) { o.mailbox.limit = int32(min(n, math.MaxInt32)) }
}

// WithInlineDispatch has no effect: every object takes its mailbox,
// and a same-process caller waiting on the reply is served on its own
// goroutine anyway (Object.serveOne).
//
// Deprecated: it remains only because the benchmark harness still
// passes it; spawn without it.
func WithInlineDispatch() SpawnOption {
	return func(*Object) {}
}

// LOID returns the object's name.
func (o *Object) LOID() loid.LOID { return o.self }

// Node returns the hosting node.
func (o *Object) Node() *Node { return o.node }

// Impl returns the object's behaviour (used by co-located runtime
// components such as Host Objects during deactivation).
func (o *Object) Impl() Impl { return o.impl }

// Caller returns the object's communication layer, building it on
// first use with the runtime's defaults and the WithResolver resolver:
// concurrent first users race one CAS and all get the winner.
func (o *Object) Caller() *Caller {
	if c := o.caller.Load(); c != nil {
		return c
	}
	c := NewCaller(o.node, o.self, nil)
	if o.newRes != nil {
		c.SetResolver(o.newRes(o.self))
	}
	if o.caller.CompareAndSwap(nil, c) {
		return c
	}
	return o.caller.Load()
}

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

// enqueue puts f in o's mailbox (see mailbox.put). When the put took a
// drainer's place and inPlace is set, the delivering goroutine, whose
// sender is blocked on the reply, fills it and serves one frame itself
// (serveOne); otherwise o goes to a dispatch goroutine. It answers
// putOK, putRefused or putRegate.
func (o *Object) enqueue(f *wire.Frame, wait bool, epoch uint64, inPlace bool) int {
	verdict := o.mailbox.put(f, wait, epoch, &o.node.gateEpoch)
	if verdict == putDrain {
		if inPlace {
			o.serveOne()
		} else {
			startDrain(o)
		}
		verdict = putOK
	}
	return verdict
}

// serveOne is a drainer that serves at most one frame, the head of the
// queue, on the goroutine that took the drainer's place. It then counts
// itself out, or, when frames arrived meanwhile, hands its place and
// that backlog to a dispatch goroutine: a sender's goroutine serves its
// own request, never other senders' queue.
func (o *Object) serveOne() {
	f := o.mailbox.next()
	if f == nil {
		return // stopped since the put; next counted us out
	}
	o.serve(f)
	f.Close()
	if !o.mailbox.leave() {
		startDrain(o)
	}
}

// drain serves o's mailbox on a dispatch goroutine until it is empty.
func (o *Object) drain() {
	for f := o.mailbox.next(); f != nil; f = o.mailbox.next() {
		o.serve(f)
		f.Close()
	}
}

// serveRec is the scratch one dispatch runs on: the Invocation the Impl
// sees, the context its Ctx returns, and the first inlineArgs argument
// views. serve and serveLocal take one per call and zero and return it
// once the reply no longer needs it, so a served call allocates none of
// them and no object or dispatch goroutine holds one between calls.
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
	r := getServeRec()
	r.inv.Env = f.Env()
	if f.NumArgs() > 0 {
		r.inv.Args = f.ArgViews(r.args[:0])
	}
	code, errText, results := o.run(f.ID, f.Method(), r)
	if f.Kind == wire.KindRequest && f.HasReplyTo() {
		o.node.replyFrame(f, code, errText, results)
	}
	// The results may alias r.args (an echo); the reply is marshalled.
	r.release()
}

// serveLocal is the co-resident bypass: the caller's goroutine runs
// the method directly — no marshal, no transport, no correlation id —
// and builds the Result in place. shard is the calling Caller's
// pending shard: its serve stripe counts the call.
func (o *Object) serveLocal(shard uint8, method string, env *wire.Env, args [][]byte) *Result {
	r := getServeRec()
	r.inv.Env = *env
	r.inv.Args = args // the caller's own slice: results that alias it outlive r
	code, errText, results := o.run(uint64(shard), method, r)
	r.release()
	return &Result{Code: code, ErrText: errText, Results: results, From: o.node.Element()}
}

// run is the one dispatch body of serve and serveLocal: it counts the
// serve in the stripe id names and under "req/<label>", reports it to
// the node's observer, grows a serve span for a traced call, rejects a
// call whose deadline already passed, and runs the rest through
// safeDispatch. r holds the call's environment and arguments; the
// caller answers the outcome and releases r.
func (o *Object) run(id uint64, method string, r *serveRec) (code wire.Code, errText string, results [][]byte) {
	o.node.countServe(id)
	if o.cReq != nil {
		o.cReq.Inc()
	}
	env := &r.inv.Env
	tid := env.TraceID
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
			trace.SpanContext{TraceID: tid, SpanID: env.SpanID},
			"serve", method, o.component())
	}
	// A request whose propagated deadline already expired is not worth
	// running: the caller has given up, and the answer — if one is
	// still listening — is definitive either way.
	if env.Deadline != 0 && o.node.now().UnixNano() > env.Deadline {
		code, errText = wire.ErrDeadlineExceeded, "deadline expired before dispatch"
		if span != nil {
			span.Event("deadline", "expired before dispatch")
		}
	} else {
		code, errText, results = o.safeDispatch(r, method, span)
		if span != nil && errText != "" {
			span.Event("error", errText)
		}
	}
	if span != nil {
		span.Finish(code.String())
	}
	if ob != nil {
		ob.ServeDone(o.component(), method, o.node.since(start), tid)
	}
	return code, errText, results
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
	// No drainer will serve the queued frames now: answer each as a
	// closed mailbox answers a late arrival, so its caller refreshes at
	// once instead of waiting out its reply wave.
	backlog := o.mailbox.close()
	for f := backlog.Pop(); f != nil; f = backlog.Pop() {
		o.node.replyStopped(f)
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
