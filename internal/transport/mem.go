package transport

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/oa"
)

// Fabric is the in-process simulated network. Endpoints are named by
// TypeMem elements carrying a fabric-unique id. The fabric can inject
// per-link latency, probabilistic loss, and partitions, and counts
// per-endpoint traffic so experiments can attribute load.
//
// The delivery fast path (no loss, no latency, no partitions) takes no
// fabric-wide lock: endpoint lookup is a sync.Map read, configuration
// is read through atomics, and the per-message payload copy comes from
// a pool — so the simulated network itself does not serialize the
// concurrent traffic the experiments measure.
type Fabric struct {
	nextID    atomic.Uint64
	closed    atomic.Bool
	endpoints sync.Map // uint64 -> *memEndpoint
	nEps      atomic.Int64

	latency  atomic.Int64  // time.Duration
	lossBits atomic.Uint64 // math.Float64bits of the loss probability
	nBlocked atomic.Int64  // fast "any partitions?" check

	// Chaos knobs (all off by default; each guarded by an atomic "is it
	// on at all?" check so the fault-free fast path pays only loads).
	nLinks      atomic.Int64  // fast "any per-link config?" check
	dupBits     atomic.Uint64 // math.Float64bits of duplication probability
	reorderBits atomic.Uint64 // math.Float64bits of reorder probability
	reorderMax  atomic.Int64  // max extra delay a reordered message gets

	mu      sync.Mutex // guards blocked, links and rng (slow paths only)
	blocked map[[2]uint64]bool
	links   map[[2]uint64]linkCfg

	rng *rand.Rand

	reg        *metrics.Registry
	cSent      *metrics.Counter
	cDropped   *metrics.Counter
	cDup       *metrics.Counter
	cReordered *metrics.Counter
	cCrashDrop *metrics.Counter
}

// linkCfg is per-link chaos: extra one-way latency and loss on one
// unordered endpoint pair.
type linkCfg struct {
	latency time.Duration
	loss    float64
}

// NewFabric builds an empty fabric. Metrics are recorded into reg;
// pass metrics.Nop to discard them.
func NewFabric(reg *metrics.Registry) *Fabric {
	if reg == nil {
		reg = metrics.Nop
	}
	return &Fabric{
		blocked:    make(map[[2]uint64]bool),
		links:      make(map[[2]uint64]linkCfg),
		rng:        rand.New(rand.NewSource(1)),
		reg:        reg,
		cSent:      reg.Counter("net/sent"),
		cDropped:   reg.Counter("net/dropped"),
		cDup:       reg.Counter("net/duplicated"),
		cReordered: reg.Counter("net/reordered"),
		cCrashDrop: reg.Counter("net/crash-dropped"),
	}
}

// SetLatency sets a uniform one-way delivery delay for all links.
// Zero (the default) delivers synchronously on the sender's goroutine
// handoff, which is what throughput benchmarks want.
func (f *Fabric) SetLatency(d time.Duration) {
	f.latency.Store(int64(d))
}

// SetLoss sets a probability in [0,1] that any message is silently
// dropped, and the seed that drives the loss process.
func (f *Fabric) SetLoss(p float64, seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
	f.lossBits.Store(math.Float64bits(p))
}

// Block partitions the pair (a,b) in both directions.
func (f *Fabric) Block(a, b uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.blocked[pairKey(a, b)] {
		f.blocked[pairKey(a, b)] = true
		f.nBlocked.Add(1)
	}
}

// Unblock heals the partition between a and b.
func (f *Fabric) Unblock(a, b uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.blocked[pairKey(a, b)] {
		delete(f.blocked, pairKey(a, b))
		f.nBlocked.Add(-1)
	}
}

func pairKey(a, b uint64) [2]uint64 {
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

// SetLinkLatency adds per-link one-way latency to the (a,b) pair, on
// top of (taking the max with) the fabric-wide latency. Zero removes
// the latency override but keeps any per-link loss.
func (f *Fabric) SetLinkLatency(a, b uint64, d time.Duration) {
	f.setLink(a, b, func(lc *linkCfg) { lc.latency = d })
}

// SetLinkLoss sets a loss probability for the (a,b) pair only.
func (f *Fabric) SetLinkLoss(a, b uint64, p float64) {
	f.setLink(a, b, func(lc *linkCfg) { lc.loss = p })
}

// ClearLink removes all per-link chaos for the (a,b) pair.
func (f *Fabric) ClearLink(a, b uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.links[pairKey(a, b)]; ok {
		delete(f.links, pairKey(a, b))
		f.nLinks.Add(-1)
	}
}

func (f *Fabric) setLink(a, b uint64, mod func(*linkCfg)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := pairKey(a, b)
	lc, existed := f.links[k]
	mod(&lc)
	if lc == (linkCfg{}) {
		if existed {
			delete(f.links, k)
			f.nLinks.Add(-1)
		}
		return
	}
	f.links[k] = lc
	if !existed {
		f.nLinks.Add(1)
	}
}

// SetDuplicate sets a probability in [0,1] that any delivered message
// is delivered twice — the Legion protocol must tolerate at-least-once
// delivery.
func (f *Fabric) SetDuplicate(p float64) {
	f.dupBits.Store(math.Float64bits(p))
}

// SetReorder makes a fraction p of messages arrive up to maxDelay
// late, i.e. after messages sent later — exercising correlation-id
// matching under out-of-order delivery.
func (f *Fabric) SetReorder(p float64, maxDelay time.Duration) {
	f.reorderMax.Store(int64(maxDelay))
	f.reorderBits.Store(math.Float64bits(p))
}

// Crash marks the endpoint named by id as crashed: traffic to and from
// it is SILENTLY dropped (counted in net/crash-dropped), exactly like
// a machine that lost power — senders learn nothing until their reply
// timers expire. It reports whether the endpoint exists.
func (f *Fabric) Crash(id uint64) bool {
	v, ok := f.endpoints.Load(id)
	if !ok {
		return false
	}
	v.(*memEndpoint).down.Store(true)
	return true
}

// Restart brings a crashed endpoint back. The endpoint keeps its
// element identity (same machine, rebooted); whatever state its node
// held is the node's problem — the fabric only restores reachability.
func (f *Fabric) Restart(id uint64) bool {
	v, ok := f.endpoints.Load(id)
	if !ok {
		return false
	}
	v.(*memEndpoint).down.Store(false)
	return true
}

// Crashed reports whether the endpoint named by id is currently down.
func (f *Fabric) Crashed(id uint64) bool {
	v, ok := f.endpoints.Load(id)
	return ok && v.(*memEndpoint).down.Load()
}

// NewEndpoint allocates an endpoint with the next fabric id.
func (f *Fabric) NewEndpoint() (Endpoint, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	ep := &memEndpoint{
		fabric: f,
		id:     f.nextID.Add(1),
		queue:  make(chan *buf.Buffer, 1024),
		done:   make(chan struct{}),
	}
	f.endpoints.Store(ep.id, ep)
	f.nEps.Add(1)
	if f.closed.Load() {
		// Raced with Close; undo the registration.
		if _, loaded := f.endpoints.LoadAndDelete(ep.id); loaded {
			f.nEps.Add(-1)
		}
		return nil, ErrClosed
	}
	go ep.pump()
	return ep, nil
}

// sendBufFrom is the delivery core: it applies chaos (loss, latency,
// partitions between from and the destination, duplication, reorder)
// and routes the reference-counted frame to the destination. Every
// path that needs fb past return takes its own reference; the caller
// keeps (and eventually releases) the reference it came in with.
func (f *Fabric) sendBufFrom(from uint64, to oa.Element, fb *buf.Buffer) error {
	id, ok := oa.MemID(to)
	if !ok {
		return ErrUnreachable
	}
	if f.closed.Load() {
		return ErrClosed
	}
	v, ok := f.endpoints.Load(id)
	if !ok {
		return ErrUnreachable
	}
	ep := v.(*memEndpoint)
	if ep.down.Load() {
		// A crashed machine answers nothing — not even an ICMP-style
		// error. Senders discover the crash only by timeout, which is
		// precisely the signal the health layer consumes.
		f.cCrashDrop.Inc()
		return nil
	}
	if from != 0 && f.nBlocked.Load() > 0 {
		f.mu.Lock()
		blocked := f.blocked[pairKey(from, id)]
		f.mu.Unlock()
		if blocked {
			return ErrUnreachable
		}
	}
	f.cSent.Inc()
	latency := time.Duration(f.latency.Load())
	if f.nLinks.Load() > 0 {
		f.mu.Lock()
		lc, ok := f.links[pairKey(from, id)]
		var drop bool
		if ok && lc.loss > 0 {
			drop = f.rng.Float64() < lc.loss
		}
		f.mu.Unlock()
		if drop {
			f.cDropped.Inc()
			return nil
		}
		if ok && lc.latency > latency {
			latency = lc.latency
		}
	}
	if p := math.Float64frombits(f.lossBits.Load()); p > 0 {
		f.mu.Lock()
		drop := f.rng.Float64() < p
		f.mu.Unlock()
		if drop {
			f.cDropped.Inc()
			return nil // silent loss, like the real network
		}
	}
	if p := math.Float64frombits(f.reorderBits.Load()); p > 0 {
		f.mu.Lock()
		hit := f.rng.Float64() < p
		var extra time.Duration
		if hit {
			if maxD := time.Duration(f.reorderMax.Load()); maxD > 0 {
				extra = time.Duration(f.rng.Int63n(int64(maxD))) + time.Microsecond
			} else {
				extra = time.Microsecond
			}
		}
		f.mu.Unlock()
		if hit {
			// Delaying a random subset makes them arrive after
			// messages sent later: out-of-order delivery.
			f.cReordered.Inc()
			latency += extra
		}
	}
	if p := math.Float64frombits(f.dupBits.Load()); p > 0 {
		f.mu.Lock()
		dup := f.rng.Float64() < p
		f.mu.Unlock()
		if dup {
			// At-least-once delivery: a second reference to the same
			// frame arrives slightly after the first.
			f.cDup.Inc()
			dupRef := fb.Retain()
			time.AfterFunc(latency+50*time.Microsecond, func() { ep.enqueue(dupRef) })
		}
	}
	if latency > 0 {
		// Deferred delivery: the fabric takes its own reference so the
		// sender may release (but not mutate) its buffer the moment
		// SendBuf returns; the pump drops the reference once the
		// handler is done.
		ref := fb.Retain()
		time.AfterFunc(latency, func() { ep.enqueue(ref) })
		return nil
	}
	// Zero-latency fast path: run the handler inline on the sender's
	// goroutine — no copy, no queue, no pump wakeup, and no reference
	// traffic (the sender's reference pins the buffer for the duration
	// of the call). sync=true tells the handler the sender is blocked
	// on it, so serving the request on this goroutine is safe.
	if ep.closed() {
		return ErrUnreachable
	}
	ep.deliver(fb, true)
	return nil
}

// Close tears down the whole fabric.
func (f *Fabric) Close() error {
	f.closed.Store(true)
	f.endpoints.Range(func(_, v any) bool {
		v.(*memEndpoint).Close()
		return true
	})
	return nil
}

// Endpoints returns the number of live endpoints.
func (f *Fabric) Endpoints() int {
	return int(f.nEps.Load())
}

type memEndpoint struct {
	fabric  *Fabric
	id      uint64
	handler atomic.Pointer[FrameHandler]
	down    atomic.Bool // crashed: all traffic silently dropped

	queue chan *buf.Buffer
	done  chan struct{}
	once  sync.Once
}

func (e *memEndpoint) Element() oa.Element { return oa.MemElement(e.id) }

func (e *memEndpoint) SendBuf(to oa.Element, b *buf.Buffer) error {
	if e.closed() {
		return ErrClosed
	}
	if e.down.Load() {
		// A crashed machine sends nothing either; anything a stale
		// goroutine still tries to transmit vanishes.
		e.fabric.cCrashDrop.Inc()
		return nil
	}
	return e.fabric.sendBufFrom(e.id, to, b)
}

func (e *memEndpoint) closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

func (e *memEndpoint) SetFrameHandler(h FrameHandler) {
	e.handler.Store(&h)
}

// deliver runs the installed handler with the fabric's reference to fb
// pinned for the duration of the call.
func (e *memEndpoint) deliver(fb *buf.Buffer, sync bool) {
	if h := e.handler.Load(); h != nil {
		(*h)(fb, fb.B, sync)
	}
}

// enqueue hands a deferred delivery (and its reference) to the pump.
func (e *memEndpoint) enqueue(fb *buf.Buffer) {
	if e.down.Load() {
		// Delivery (e.g. a delayed message) raced a crash: drop it.
		e.fabric.cCrashDrop.Inc()
		fb.Release()
		return
	}
	select {
	case e.queue <- fb:
	case <-e.done:
		fb.Release()
	}
}

func (e *memEndpoint) pump() {
	for {
		select {
		case fb := <-e.queue:
			e.deliver(fb, false)
			fb.Release()
		case <-e.done:
			return
		}
	}
}

func (e *memEndpoint) Close() error {
	e.once.Do(func() {
		close(e.done)
		f := e.fabric
		if _, loaded := f.endpoints.LoadAndDelete(e.id); loaded {
			f.nEps.Add(-1)
		}
		// Drop references parked in the queue; the pump may have exited
		// without draining them.
		for {
			select {
			case fb := <-e.queue:
				fb.Release()
			default:
				return
			}
		}
	})
	return nil
}
