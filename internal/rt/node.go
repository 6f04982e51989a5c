package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/clock"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// pendingShards stripes the pending-future table so concurrent callers
// and concurrent replies do not serialize on one lock. Power of two: a
// correlation id's low shardBits bits name the shard it was drawn from.
const (
	pendingShards = 1 << shardBits
	shardBits     = 4
)

// lineSize is what padded per-caller state is rounded up to: two 64 B
// cache lines, so the adjacent-line prefetcher does not pair one
// caller's line with another's either.
const lineSize = 128

// pendingShard is one stripe of the correlation-id → Future table. Each
// Caller draws its ids from one shard (Caller.shard), so callers on
// different shards write no common cache line: the shard's lock, its id
// sequence and its map share the shard's own padded line pair.
type pendingShard struct {
	mu  sync.Mutex
	seq uint64 // ids drawn so far; an id is seq<<shardBits | shard index
	m   map[uint64]*Future
	_   [lineSize - 24]byte
}

// serveStripe is one padded cell of a node's serve count (Node.Served).
// A serve bumps the stripe its request id's shard bits name, so serves
// for callers on different shards write different lines.
type serveStripe struct {
	n atomic.Uint64
	_ [lineSize - 8]byte
}

// Node hosts active Legion objects on one transport endpoint. In the
// paper's terms a Node is one address space on a host; the Host Object
// for the machine starts objects by spawning them onto nodes. Incoming
// requests are routed to the target object's mailbox; requests for
// objects the node does not (or no longer) hosts are answered with
// wire.ErrNoSuchObject, which is how callers discover stale bindings
// (§4.1.4).
//
// The receive and send paths are built for concurrency: object lookup
// is a lock-free sync.Map read, the pending-future table and the serve
// count are striped across pendingShards padded cells, each caller
// keeping to one (DESIGN §5, what a warm call writes), and the node's
// hot metric counters are interned at construction so no per-message
// string concatenation happens.
type Node struct {
	ep   transport.Endpoint
	reg  *metrics.Registry
	name string

	mu      sync.Mutex // serializes Spawn/Kill/Close transitions
	objects sync.Map   // loid.Ident -> *Object
	closed  atomic.Bool

	// tracer collects invocation spans for this node's objects and
	// callers; nil (the default) disables tracing at the cost of one
	// atomic load per call.
	tracer atomic.Pointer[trace.Tracer]

	// observer feeds the observability plane (per-method latency,
	// flight-recorder events); nil (the default) disables it at the
	// cost of one atomic load per serve.
	observer atomic.Pointer[Observer]

	addr oa.Address // cached: ReplyTo of every outgoing request

	// Migration gates (park.go). nGates is the fast-path short-circuit:
	// receiveFrame consults the gate table only while it is nonzero.
	gmu    sync.Mutex
	gates  map[loid.Ident]*gate
	nGates atomic.Int64
	// gateEpoch counts Parks. A deliverer reads it before looking for a
	// gate and the mailbox compares it under its lock (mailbox.put), so a
	// gate that goes up in between is not missed.
	gateEpoch atomic.Uint64

	// clk is the node's time source: nil means the wall clock, so the
	// invocation fast path pays one nil check, not an interface call.
	// Every timing decision on the node — reply timers, deadline
	// checks, serve-latency stamps, and (through the owning Host) the
	// checkpoint/heartbeat loops — reads it, which is what lets a
	// deployment run against clock.Virtual deterministically.
	clk clock.Clock

	cGarbage   *metrics.Counter
	cStale     *metrics.Counter
	cExcept    *metrics.Counter
	cParked    *metrics.Counter
	cForwarded *metrics.Counter
	cSpawns    *metrics.Counter // dispatch goroutines started (dispatch.go)

	// nextShard deals pending shards to Callers round-robin; it is
	// written once per NewCaller, never per call.
	nextShard atomic.Uint32

	// The per-call lines, after a pad that keeps the fields above (read
	// on every delivery) off the first of them.
	_       [lineSize]byte
	pending [pendingShards]pendingShard
	// served counts dispatched requests (all residents), striped by the
	// request's shard; Served sums it.
	served [pendingShards]serveStripe
}

// NewNode creates a node with a fresh endpoint on t. Metrics are
// recorded into reg (nil discards); name prefixes the node's metric
// names.
func NewNode(t transport.Transport, reg *metrics.Registry, name string) (*Node, error) {
	if reg == nil {
		reg = metrics.Nop
	}
	ep, err := t.NewEndpoint()
	if err != nil {
		return nil, err
	}
	n := &Node{
		ep:       ep,
		reg:      reg,
		name:     name,
		addr:     oa.Single(ep.Element()),
		cGarbage: reg.Counter("node/" + name + "/garbage"),
		cStale:   reg.Counter("node/" + name + "/stale-target"),
		cExcept:  reg.Counter("exceptions/node-" + name),
		// mig/* metrics are shared by name across every node of a
		// process, so the debug surface shows one system-wide view.
		cParked:    reg.Counter("mig/parked"),
		cForwarded: reg.Counter("mig/forwarded"),
		// Counted per start, never per call: a steady rate means the
		// idle pool is too small for the load.
		cSpawns: reg.Counter("rt/dispatch_spawns"),
	}
	for i := range n.pending {
		n.pending[i].m = make(map[uint64]*Future)
	}
	ep.SetFrameHandler(n.receiveFrame)
	return n, nil
}

// Element returns the transport element other nodes use to reach this
// node's objects.
func (n *Node) Element() oa.Element { return n.ep.Element() }

// Address returns the node's element as a single-element Object
// Address.
func (n *Node) Address() oa.Address { return n.addr }

// Registry returns the node's metrics registry.
func (n *Node) Registry() *metrics.Registry { return n.reg }

// Served returns the number of requests dispatched on this node since
// it started; Host Objects difference it across heartbeats for their
// dispatch-rate load signal.
func (n *Node) Served() (total uint64) {
	for i := range n.served {
		total += n.served[i].n.Load()
	}
	return total
}

// countServe counts one dispatched request in the serve stripe that id,
// a correlation id or a shard index, names.
func (n *Node) countServe(id uint64) { n.served[id&(pendingShards-1)].n.Add(1) }

// SetClock installs the node's time source (nil restores the wall
// clock). Install before the node serves traffic: callers and objects
// read it without synchronization on the fast path.
func (n *Node) SetClock(c clock.Clock) {
	if c == clock.Wall {
		c = nil
	}
	n.clk = c
}

// Clock returns the node's time source (clock.Wall when none was
// installed) — the seam the Host's checkpoint and heartbeat loops,
// tombstone TTLs, and reply timers hang off.
func (n *Node) Clock() clock.Clock { return clock.Of(n.clk) }

// now/since keep the fast path free of interface dispatch when the
// node runs on the wall clock (the overwhelmingly common case).
func (n *Node) now() time.Time {
	if n.clk != nil {
		return n.clk.Now()
	}
	return time.Now()
}

func (n *Node) since(t time.Time) time.Duration {
	if n.clk != nil {
		return n.clk.Since(t)
	}
	return time.Since(t)
}

// SetTracer installs the node's span collector; nil disables tracing.
// Tracers are typically shared by every node of a process so multi-hop
// traces can be assembled in one place.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// Tracer returns the installed tracer (nil when tracing is disabled).
func (n *Node) Tracer() *trace.Tracer { return n.tracer.Load() }

// Observer receives serve-path completions and notable runtime events
// for the observability plane (internal/obs implements it). Both
// methods must be cheap and non-blocking: they run on dispatch
// goroutines.
type Observer interface {
	// ServeDone reports one completed dispatch on the named component
	// (metric label or node name) with its method, wall time, and the
	// request's TraceID (0 when untraced).
	ServeDone(component, method string, d time.Duration, traceID uint64)
	// Note records a flight-recorder event (park, forward, ...).
	Note(kind, object, detail string, traceID uint64)
}

// SetObserver installs the node's observability hook; nil disables it.
// Like tracers, observers are typically shared by every node of a
// process so the plane sees one merged stream.
func (n *Node) SetObserver(ob Observer) {
	if ob == nil {
		n.observer.Store(nil)
		return
	}
	n.observer.Store(&ob)
}

// Observer returns the installed observer (nil when disabled).
func (n *Node) Observer() Observer {
	if p := n.observer.Load(); p != nil {
		return *p
	}
	return nil
}

// Spawn activates an object on this node: the impl becomes reachable
// at the node's address under l, and every request to it goes through
// its mailbox (WithConcurrency sets how many run at once). label names
// the object in metrics (e.g. "class/L256.0"); empty disables
// per-object counting.
func (n *Node) Spawn(l loid.LOID, impl Impl, opts ...SpawnOption) (*Object, error) {
	o := &Object{node: n, self: l, impl: impl}
	for _, opt := range opts {
		opt(o)
	}
	o.mailbox.init()
	if o.label != "" {
		name := "req/" + o.label
		o.cReq = n.reg.Counter(name)
		o.label = name[len("req/"):] // one string for the label and the counter's name
	}
	// Bind before the object is reachable: the first request may be
	// dispatched the moment it is published.
	if b, ok := impl.(Binder); ok {
		b.Bind(o)
	}
	n.mu.Lock()
	if n.closed.Load() {
		n.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if _, exists := n.objects.LoadOrStore(l.Ident(), o); exists {
		n.mu.Unlock()
		return nil, fmt.Errorf("rt: object %v already active on node %s", l, n.name)
	}
	n.mu.Unlock()
	// A live incarnation supersedes any leftover migration tombstone
	// (the object migrated back here): clear it or it would shadow us.
	n.clearGate(l, true)
	return o, nil
}

// Lookup returns the active object registered under l, if any.
func (n *Node) Lookup(l loid.LOID) (*Object, bool) {
	v, ok := n.objects.Load(l.Ident())
	if !ok {
		return nil, false
	}
	return v.(*Object), true
}

// Kill deactivates the object registered under l and removes it from
// the node. Requests still queued in its mailbox, and later ones, are
// answered ErrNoSuchObject. It reports whether an object was removed.
func (n *Node) Kill(l loid.LOID) bool {
	n.mu.Lock()
	v, ok := n.objects.LoadAndDelete(l.Ident())
	n.mu.Unlock()
	if ok {
		v.(*Object).stop()
	}
	return ok
}

// Objects returns the LOIDs of all active objects on the node.
func (n *Node) Objects() []loid.LOID {
	var out []loid.LOID
	n.objects.Range(func(_, v any) bool {
		out = append(out, v.(*Object).self)
		return true
	})
	return out
}

// Close tears down the node, all its objects, and its endpoint.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed.Swap(true) {
		n.mu.Unlock()
		return nil
	}
	var objs []*Object
	n.objects.Range(func(k, v any) bool {
		objs = append(objs, v.(*Object))
		n.objects.Delete(k)
		return true
	})
	n.mu.Unlock()
	for _, o := range objs {
		o.stop()
	}
	n.dropAllGates()
	return n.ep.Close()
}

// receiveFrame is the endpoint frame handler: it parses the frame
// lazily — offsets only, no payload copies — and routes it. Request
// frames headed for a mailbox take their own reference on the
// transport buffer (Frame.Own), so the payload bytes flow from the
// socket to the dispatched method without ever being copied. sync
// reports that the delivery runs on the sender's goroutine (the mem
// fabric's zero-latency path, or TCP between endpoints of one TCP
// value).
func (n *Node) receiveFrame(b *buf.Buffer, data []byte, sync bool) {
	f := wire.GetFrame()
	if err := f.Parse(data); err != nil {
		f.Close()
		n.cGarbage.Inc()
		return
	}
	switch f.Kind {
	case wire.KindReply:
		n.completeReply(f)
		f.Close()
	case wire.KindRequest, wire.KindOneWay:
		n.routeRequest(f, b, sync)
	default:
		n.cGarbage.Inc()
		f.Close()
	}
}

// routeRequest routes one parsed request frame to its target: through the
// target's migration gate if one is up, else into the object's mailbox,
// the one way a frame reaches an object. sync is receiveFrame's: with
// it, a request whose sender waits on the reply (Frame.Waits) may be
// served right here when no drainer is running (Object.enqueue); any
// other request goes to a dispatch goroutine, so a method that blocks
// never holds a socket's read loop.
func (n *Node) routeRequest(f *wire.Frame, b *buf.Buffer, sync bool) {
	for {
		epoch := n.gateEpoch.Load() // before the gate check; see mailbox.put
		if n.nGates.Load() != 0 {
			n.gmu.Lock()
			g, ok := n.gates[f.TargetID()]
			n.gmu.Unlock()
			if ok && n.handleGated(g, f, b) {
				return
			}
		}
		v, ok := n.objects.Load(f.TargetID())
		if !ok {
			if n.gateEpoch.Load() != epoch {
				continue // it may have migrated away behind a gate we missed
			}
			// The sender's binding is stale (§4.1.4); tell it so.
			n.cStale.Inc()
			if f.Kind == wire.KindRequest && f.HasReplyTo() {
				n.replyFrame(f, wire.ErrNoSuchObject, fmt.Sprintf("object %v is not active here", f.Target()), nil)
			}
			f.Close()
			return
		}
		o := v.(*Object)
		if b != nil {
			f.Own(b) // the mailbox outlives this call: pin the buffer
			b = nil  // once, however often the gate check repeats
		}
		switch o.enqueue(f, true, epoch, sync && f.Waits()) {
		case putOK:
			return
		case putRefused:
			n.replyStopped(f)
			f.Close()
			return
		}
		// putRegate: a Park began after the gate check; check again.
	}
}

// replyStopped answers a request that reached an object after its stop
// with the stale-binding verdict.
func (n *Node) replyStopped(f *wire.Frame) {
	if f.Kind == wire.KindRequest && f.HasReplyTo() {
		n.replyFrame(f, wire.ErrNoSuchObject, "object stopped", nil)
	}
}

// completeReply matches a reply frame to its pending future. The
// completion happens UNDER the shard lock: once the entry leaves the
// table and the lock is released, the future may be recycled
// (putFuture), so no completion may touch it after that point.
func (n *Node) completeReply(f *wire.Frame) {
	s := &n.pending[f.ID&(pendingShards-1)]
	s.mu.Lock()
	fu, ok := s.m[f.ID]
	if !ok {
		s.mu.Unlock()
		return
	}
	fu.remaining--
	if fu.remaining <= 0 {
		delete(s.m, f.ID)
	}
	res := replyResult(f)
	if f.HasReplyTo() {
		// Replies carry the responder's address so the caller can
		// attribute them to an endpoint (health tracking).
		res.From = f.ReplyToElem(0)
	}
	fu.complete(res)
	s.mu.Unlock()
}

// replyInline is how many result bytes a one-result reply carries inside
// its Result's own allocation: Work's 8-byte counter and the other
// scalar replies fit.
const replyInline = 16

// replyBox is a one-result reply in one allocation: the Result, its
// result header and, when they fit, the result bytes.
type replyBox struct {
	res   Result
	hdr   [1][]byte
	bytes [replyInline]byte
}

// replyResult copies a reply frame's code, error text and results into
// a Result the caller owns. A reply with no result, or one result of up
// to replyInline bytes, is one allocation; any other is at most three
// (the Result, the result headers, one block for all the result bytes).
func replyResult(f *wire.Frame) *Result {
	var res *Result
	switch n := f.NumArgs(); n {
	case 0:
		res = new(Result)
	case 1:
		box := new(replyBox)
		if a := f.Arg(0); len(a) > replyInline {
			box.hdr[0] = append([]byte(nil), a...)
		} else if len(a) > 0 {
			copy(box.bytes[:], a)
			box.hdr[0] = box.bytes[:len(a):len(a)]
		}
		res = &box.res
		res.Results = box.hdr[:]
	default:
		total := 0
		for i := 0; i < n; i++ {
			total += len(f.Arg(i))
		}
		block := make([]byte, 0, total)
		res = &Result{Results: make([][]byte, n)}
		for i := range res.Results {
			if a := f.Arg(i); len(a) > 0 {
				off := len(block)
				block = append(block, a...)
				// Capped, so appending to one result cannot overwrite the next.
				res.Results[i] = block[off:len(block):len(block)]
			}
		}
	}
	res.Code = f.Code
	res.ErrText = f.ErrText()
	return res
}

// replyFrame answers a request frame: the reply is marshalled straight
// into a pooled buffer and handed to the transport zero-copy.
func (n *Node) replyFrame(req *wire.Frame, code wire.Code, errText string, results [][]byte) {
	wb := buf.Get()
	// Stamp the reply with this node's address (the from argument): the
	// caller uses it to attribute the reply to a concrete endpoint for
	// health tracking.
	wb.B = wire.AppendReply(wb.B, req.ID, req.EnvCalling(), code, errText, results, n.addr)
	// Best effort; the reply address may itself be gone.
	for i := 0; i < req.ReplyToLen(); i++ {
		if err := n.ep.SendBuf(req.ReplyToElem(i), wb); err == nil {
			break
		}
	}
	wb.Release()
}

// futureChanCap is the reply-channel capacity of pooled futures; waves
// expecting more replies than this get a fresh, exactly-sized future.
const futureChanCap = 8

// futurePool recycles the deliver loop's futures: every synchronous
// call registers one, so allocating the Future, its channel, and a
// fresh table entry per call is measurable on the fast path.
var futurePool sync.Pool

// newFuture registers a pending future under a fresh correlation id
// drawn from pending shard shard, the calling Caller's own, expecting up
// to expect replies (one per replica contacted). The id is drawn and
// entered under the shard's lock in one critical section, so no line
// another shard's callers write is touched. pooled futures are recycled
// by the deliver loop (putFuture) once out of the table; futures handed
// to users (InvokeCtx) are never pooled — their lifetime is the user's
// business.
func (n *Node) newFuture(shard uint8, expect int, pooled bool) *Future {
	if expect < 1 {
		expect = 1
	}
	var f *Future
	if pooled && expect <= futureChanCap {
		if v, ok := futurePool.Get().(*Future); ok {
			f = v
		} else {
			f = &Future{ch: make(chan *Result, futureChanCap), pooled: true}
		}
	} else {
		f = &Future{ch: make(chan *Result, expect)}
	}
	f.node = n
	f.remaining = expect
	s := &n.pending[shard]
	s.mu.Lock()
	s.seq++
	f.id = s.seq<<shardBits | uint64(shard)
	s.m[f.id] = f
	s.mu.Unlock()
	return f
}

// putFuture recycles a deliver-loop future. The caller must first make
// sure the future is out of the pending table (the final reply deleted
// the entry, or cancel did): completions happen under the shard lock,
// so once the entry is gone no completion can race the recycle. Late
// replies parked in the channel are drained so the next user starts
// empty.
func (n *Node) putFuture(f *Future) {
	if f == nil || !f.pooled {
		return
	}
	for {
		select {
		case <-f.ch:
		default:
			futurePool.Put(f)
			return
		}
	}
}

func (n *Node) cancel(id uint64) {
	s := &n.pending[id&(pendingShards-1)]
	s.mu.Lock()
	delete(s.m, id)
	s.mu.Unlock()
}

// adjustPending lowers a future's expected reply count after some
// sends failed locally (those replicas will never answer).
func (n *Node) adjustPending(id uint64, delta int) {
	s := &n.pending[id&(pendingShards-1)]
	s.mu.Lock()
	if f, ok := s.m[id]; ok {
		f.remaining += delta
		if f.remaining <= 0 {
			delete(s.m, id)
		}
	}
	s.mu.Unlock()
}
