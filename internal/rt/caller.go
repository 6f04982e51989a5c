package rt

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/security"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrUnbound reports that no binding could be obtained for a LOID.
var ErrUnbound = errors.New("rt: no binding for target")

// Resolver obtains bindings on local cache misses; it is typically
// backed by the object's Binding Agent (§3.6), whose Object Address is
// part of the object's persistent state.
type Resolver interface {
	// Resolve binds l to an Object Address (GetBinding(LOID)).
	Resolve(l loid.LOID) (binding.Binding, error)
	// Refresh asks for a different binding than the stale one passed
	// in (GetBinding(binding), §3.6).
	Refresh(stale binding.Binding) (binding.Binding, error)
}

// CtxResolver is an optional Resolver extension. A resolver that makes
// nested invocations (the Binding Agent client) implements it so the
// original call's remaining deadline and trace identity propagate into
// the resolution chain; plain Resolvers keep working unchanged.
type CtxResolver interface {
	ResolveCtx(ctx context.Context, l loid.LOID) (binding.Binding, error)
	RefreshCtx(ctx context.Context, stale binding.Binding) (binding.Binding, error)
}

// resolverRef boxes a Resolver so a nil resolver is representable in an
// atomic.Pointer.
type resolverRef struct{ r Resolver }

// Caller is one object's Legion-aware communication layer (§4.1.2): it
// caches bindings, consults its Resolver on misses, and detects and
// repairs stale bindings (§4.1.4). A Caller may also be used
// free-standing (not attached to a spawned object) as a client handle.
//
// The invocation fast path (§5.2.1: the common case must be as close to
// a raw message send as possible) holds no Caller lock: the cache and
// resolver live behind atomic pointers and address-selection randomness
// comes from a lock-free splitmix64 stream, so concurrent invocations
// through one Caller never serialize on Caller state.
type Caller struct {
	node *Node
	self loid.LOID
	env  wire.Env

	resolver atomic.Pointer[resolverRef]
	cache    atomic.Pointer[binding.Cache]
	health   atomic.Pointer[health.Tracker]
	rngState atomic.Uint64
	traceSeq atomic.Uint64 // per-caller root-sampling counter

	// Timeout is the per-wave reply deadline (default 2s). A call with
	// a propagated deadline uses min(Timeout, remaining budget) per
	// wave.
	Timeout time.Duration
	// MaxRefresh bounds stale-binding refresh attempts per invocation
	// (default 2). Superseded by Retry.MaxAttempts when that is set.
	MaxRefresh int
	// Retry configures the synchronous retry loop; the zero value
	// keeps the historical MaxRefresh+1-attempts-no-backoff behaviour.
	Retry RetryPolicy
	// Budget, when non-nil, rate-limits this caller's retries (shared
	// budgets bound retry amplification fleet-wide). Nil = unlimited.
	Budget *RetryBudget
}

// NewCaller builds a communication layer for self on node. resolver
// may be nil (only cached/explicitly added bindings and direct
// addresses will work — the bootstrap objects run this way).
func NewCaller(node *Node, self loid.LOID, resolver Resolver) *Caller {
	c := &Caller{
		node:       node,
		self:       self,
		env:        security.Env(self),
		Timeout:    2 * time.Second,
		MaxRefresh: 2,
	}
	c.resolver.Store(&resolverRef{r: resolver})
	c.rngState.Store(uint64(self.ClassID)<<32 ^ uint64(self.ClassSpecific) ^ 0x5DEECE66D)
	return c
}

// DefaultBindingCacheSize is the default per-object binding cache
// capacity; experiments override it via SetCache. The cache is built
// on first use (see Cache): most objects only ever answer calls, and
// an unused cache would be the largest part of an idle object.
const DefaultBindingCacheSize = 512

// SetResolver installs or replaces the resolver.
func (c *Caller) SetResolver(r Resolver) {
	c.resolver.Store(&resolverRef{r: r})
}

// SetCache replaces the binding cache (e.g. with a different capacity).
// The node's clock carries over to the new cache.
func (c *Caller) SetCache(cache *binding.Cache) {
	if c.node.clk != nil {
		// Bindings minted under a virtual clock carry virtual-epoch
		// expiries; the cache must judge them on the same time base.
		cache.SetClock(c.node.clk.Now)
	}
	c.cache.Store(cache)
}

// SetHealth installs a per-destination health tracker (nil disables).
// Trackers are typically shared by many callers so that one caller's
// timeout spares the rest the same discovery. With a tracker set,
// deliver skips endpoints whose breaker is open, prefers healthy
// replicas in wave order, and reports send/reply outcomes back.
func (c *Caller) SetHealth(t *health.Tracker) {
	c.health.Store(t)
}

// Health returns the installed health tracker (nil when disabled).
func (c *Caller) Health() *health.Tracker { return c.health.Load() }

// Cache returns the binding cache (for inspection and explicit
// AddBinding-style propagation), building it on first use: concurrent
// first users race one CAS and all get the winner.
func (c *Caller) Cache() *binding.Cache {
	if cache := c.cache.Load(); cache != nil {
		return cache
	}
	cache := binding.NewCache(DefaultBindingCacheSize)
	if c.node.clk != nil {
		cache.SetClock(c.node.clk.Now)
	}
	if c.cache.CompareAndSwap(nil, cache) {
		return cache
	}
	return c.cache.Load()
}

// getResolver returns the current resolver (possibly nil).
func (c *Caller) getResolver() Resolver {
	return c.resolver.Load().r
}

// SetEnv overrides the security environment used for outgoing calls
// (delegating the Responsible/Security Agent roles, §2.4).
func (c *Caller) SetEnv(env wire.Env) { c.env = env }

// Env returns the caller's outgoing security environment.
func (c *Caller) Env() wire.Env { return c.env }

// Self returns the identity the caller acts as.
func (c *Caller) Self() loid.LOID { return c.self }

// AddBinding seeds the local cache (binding propagation, §3.6).
func (c *Caller) AddBinding(b binding.Binding) { c.Cache().Add(b) }

// startSpan begins the client-side span for one call: a child when the
// surrounding invocation is traced, otherwise a sampled root. With no
// tracer installed this costs one atomic load. The root-sampling
// counter is per-caller — concurrent callers must not contend on one
// shared cache line just to decide "not sampled".
func (c *Caller) startSpan(ctx context.Context, method string) *trace.Span {
	tr := c.node.tracer.Load()
	if tr == nil {
		return nil
	}
	if parent := trace.FromContext(ctx); parent.Valid() {
		return tr.Child(parent, "call", method, c.node.name)
	}
	if c.traceSeq.Add(1)%tr.SampleEvery() != 0 {
		return nil
	}
	return tr.RootAlways("call", method, c.node.name)
}

// finishCall stamps the call span with the outcome.
func finishCall(span *trace.Span, res *Result, err error) {
	if span == nil {
		return
	}
	switch {
	case err != nil:
		span.Finish("error: " + err.Error())
	case res != nil:
		span.Finish(res.Code.String())
	default:
		span.Finish("")
	}
}

// withSpan threads a live span's identity into ctx so nested hops made
// on our behalf (resolver calls) become its children.
func withSpan(ctx context.Context, span *trace.Span) context.Context {
	if span == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return trace.NewContext(ctx, span.Context())
}

// resolve order: cache, then resolver. The cache-hit path is lock-free
// above the cache shard itself. A traced call records the cache verdict
// as a span event and hands its identity to a CtxResolver so Binding
// Agent hops join the trace.
func (c *Caller) resolve(ctx context.Context, target loid.LOID, span *trace.Span) (binding.Binding, error) {
	// A caller that never held a binding has no cache yet: that is a
	// miss, and only a resolver that can fill one brings it into being
	// (before the Get, so the miss is counted like any other).
	cache := c.cache.Load()
	if cache == nil && c.getResolver() != nil {
		cache = c.Cache()
	}
	if cache != nil {
		if b, ok := cache.Get(target); ok {
			span.Event("cache", "hit")
			return b, nil
		}
	}
	span.Event("cache", "miss")
	r := c.getResolver()
	if r == nil {
		return binding.Binding{}, fmt.Errorf("%w: %v (no resolver)", ErrUnbound, target)
	}
	var b binding.Binding
	var err error
	if cr, ok := r.(CtxResolver); ok {
		b, err = cr.ResolveCtx(withSpan(ctx, span), target)
	} else {
		b, err = r.Resolve(target)
	}
	if err != nil {
		return binding.Binding{}, fmt.Errorf("%w: %v: %v", ErrUnbound, target, err)
	}
	c.Cache().Add(b) // not cache: a resolver installed since the check above finds it nil
	return b, nil
}

// Invoke performs a non-blocking method invocation and returns a
// Future. Binding resolution and transmission happen before return;
// only the reply is awaited through the Future.
func (c *Caller) Invoke(target loid.LOID, method string, args ...[]byte) (*Future, error) {
	return c.InvokeCtx(context.Background(), target, method, args...)
}

// InvokeCtx is Invoke with a context: the context's deadline (if any)
// is stamped into the request environment so the receiving object and
// its nested calls inherit the remaining budget.
func (c *Caller) InvokeCtx(ctx context.Context, target loid.LOID, method string, args ...[]byte) (*Future, error) {
	b, err := c.resolve(ctx, target, nil)
	if err != nil {
		return nil, err
	}
	return c.sendRequest(b.Address, target, method, args, deadlineNanos(ctx), trace.FromContext(ctx))
}

// Call is the synchronous convenience around Invoke: it awaits the
// reply, transparently refreshing stale bindings and retrying
// (§4.1.4: "when [a binding] doesn't work ... request that the binding
// be refreshed").
func (c *Caller) Call(target loid.LOID, method string, args ...[]byte) (*Result, error) {
	return c.CallCtx(context.Background(), target, method, args...)
}

// CallCtx is Call with a context. The context's deadline bounds the
// whole call — per-wave timeouts are clipped to the remaining budget,
// the deadline rides wire.Env so nested hops inherit what is left, and
// an expired budget yields a definitive ErrDeadlineExceeded result.
// Retries follow c.Retry (attempts, jittered exponential backoff) and
// draw on c.Budget when one is installed.
func (c *Caller) CallCtx(ctx context.Context, target loid.LOID, method string, args ...[]byte) (*Result, error) {
	span := c.startSpan(ctx, method)
	res, err := c.callCtx(ctx, target, method, args, span)
	finishCall(span, res, err)
	return res, err
}

// callCtx is the CallCtx body; the span (nil when untraced) collects
// cache, retry, refresh, breaker and deadline events along the way.
func (c *Caller) callCtx(ctx context.Context, target loid.LOID, method string, args [][]byte, span *trace.Span) (*Result, error) {
	b, err := c.resolve(ctx, target, span)
	if err != nil {
		return nil, err
	}
	deadline := deadlineOf(ctx)
	maxAttempts := c.Retry.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = c.MaxRefresh + 1
	}
	for attempt := 0; ; attempt++ {
		res, err := c.deliver(ctx, b.Address, target, method, args, span)
		if err == nil && !retryable(res.Code) {
			c.noteResponder(b, res.From, span)
			return res, nil
		}
		if attempt >= maxAttempts-1 {
			if err != nil {
				return nil, err
			}
			return res, nil
		}
		// Retries cost budget: a shared budget keeps a partial outage
		// from amplifying offered load exactly when capacity is short.
		if !c.Budget.takeAt(c.now()) {
			span.Event("retry", "budget exhausted")
			if err != nil {
				return nil, fmt.Errorf("rt: %v (retry budget exhausted)", err)
			}
			return res, nil
		}
		if span != nil {
			why := "send error"
			if res != nil {
				why = res.Code.String()
			}
			span.Event("retry", fmt.Sprintf("attempt %d after %s", attempt+2, why))
		}
		// Jittered exponential backoff decorrelates retry storms. The
		// sleep is clipped to the deadline; if the budget runs out the
		// next deliver returns ErrDeadlineExceeded.
		_ = sleepBackoff(c.node.Clock(), c.Retry.backoff(attempt, c.intn), deadline)
		// The binding is stale or the endpoint unreachable: refresh.
		nb, rerr := c.refresh(ctx, b, span)
		if rerr != nil {
			// A refresh failure with a merely-unavailable (not
			// stale-signalled) binding usually means transient message
			// loss; retransmit on the old binding instead of giving up
			// (§4.1.4 expects the communication layer to absorb this).
			if res != nil && res.Code == wire.ErrUnavailable {
				c.Cache().Add(b)
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("rt: %v (refresh failed: %v)", err, rerr)
			}
			return res, nil
		}
		b = nb
	}
}

// noteResponder is the binding-refresh hint a migration tombstone
// pushes back to callers: replies carry the responder's element, and a
// definitive answer from an element OTHER than the one the (single-
// element) binding names means the object now lives there — a
// forwarded call answered by the new host. Re-pointing the cached
// binding turns the one-hop tombstone into a self-healing redirect:
// the very next call goes straight to the new home, no refresh RPC.
// Replicated addresses are left alone — any replica may answer those.
func (c *Caller) noteResponder(b binding.Binding, from oa.Element, span *trace.Span) {
	if from == (oa.Element{}) || len(b.Address.Elements) != 1 || b.Address.Elements[0] == from {
		return
	}
	span.Event("rebind", "reply from new home; cache re-pointed")
	c.Cache().Add(binding.Binding{LOID: b.LOID, Address: oa.Single(from), Expires: b.Expires})
}

// deadlineOf extracts a context deadline (zero time when absent).
func deadlineOf(ctx context.Context) time.Time {
	if ctx == nil {
		return time.Time{}
	}
	d, ok := ctx.Deadline()
	if !ok {
		return time.Time{}
	}
	return d
}

// deadlineNanos is deadlineOf in wire encoding (0 = none).
func deadlineNanos(ctx context.Context) int64 {
	d := deadlineOf(ctx)
	if d.IsZero() {
		return 0
	}
	return d.UnixNano()
}

func (c *Caller) refresh(ctx context.Context, stale binding.Binding, span *trace.Span) (binding.Binding, error) {
	span.Event("refresh", "stale binding invalidated")
	if cache := c.cache.Load(); cache != nil {
		cache.InvalidateBinding(stale)
	}
	r := c.getResolver()
	if r == nil {
		return binding.Binding{}, ErrUnbound
	}
	var nb binding.Binding
	var err error
	if cr, ok := r.(CtxResolver); ok {
		nb, err = cr.RefreshCtx(withSpan(ctx, span), stale)
	} else {
		nb, err = r.Refresh(stale)
	}
	if err != nil {
		return binding.Binding{}, err
	}
	c.Cache().Add(nb)
	return nb, nil
}

// CallAddr invokes a method at an explicit Object Address, bypassing
// binding resolution. Bootstrap and Binding Agent clients use it (the
// agent's address is part of the object's persistent state, §3.6).
func (c *Caller) CallAddr(addr oa.Address, target loid.LOID, method string, args ...[]byte) (*Result, error) {
	return c.CallAddrCtx(context.Background(), addr, target, method, args...)
}

// CallAddrCtx is CallAddr with a context: the deadline bounds the call
// and a carried trace identity parents this hop's span.
func (c *Caller) CallAddrCtx(ctx context.Context, addr oa.Address, target loid.LOID, method string, args ...[]byte) (*Result, error) {
	span := c.startSpan(ctx, method)
	res, err := c.deliver(ctx, addr, target, method, args, span)
	finishCall(span, res, err)
	return res, err
}

// OneWay sends a method invocation with no reply expected.
func (c *Caller) OneWay(target loid.LOID, method string, args ...[]byte) error {
	b, err := c.resolve(context.Background(), target, nil)
	if err != nil {
		return err
	}
	return c.OneWayAddr(b.Address, target, method, args...)
}

// OneWayAddr sends a no-reply invocation to an explicit Object
// Address, bypassing binding resolution (used for push-style
// notifications such as binding propagation, §4.1.4).
func (c *Caller) OneWayAddr(addr oa.Address, target loid.LOID, method string, args ...[]byte) error {
	wb := buf.Get()
	wb.B = wire.AppendRequest(wb.B, wire.KindOneWay, 0, target, method, &c.env, oa.Address{}, args)
	defer wb.Release()
	waves := addr.Targets(c.intn)
	var lastErr error = transport.ErrUnreachable
	for _, wave := range waves {
		sent := false
		for _, e := range wave {
			if err := c.node.sendBuf(e, wb); err == nil {
				sent = true
			} else {
				lastErr = err
			}
		}
		if sent {
			return nil
		}
	}
	return lastErr
}

// retryable reports reply codes that mean "try another replica or a
// refreshed binding" rather than a definitive answer. The
// classification itself lives next to the codes (wire.Retryable) so
// additions are audited — and table-tested — in one place.
func retryable(code wire.Code) bool {
	return wire.Retryable(code)
}

// timerPool recycles the per-wave reply timers; every synchronous call
// arms one, so allocating a fresh runtime timer per call is measurable
// on the fast path.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if t, ok := timerPool.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// now/since/until read the hosting node's clock; on the wall clock
// (the common case) they compile down to the direct time calls the
// fast path always made, behind one predictable nil check.
func (c *Caller) now() time.Time                  { return c.node.now() }
func (c *Caller) since(t time.Time) time.Duration { return c.node.since(t) }

func (c *Caller) until(t time.Time) time.Duration {
	if c.node.clk != nil {
		return c.node.clk.Until(t)
	}
	return time.Until(t)
}

// callTimer is the per-wave reply timer behind the clock seam: on the
// wall clock it is a pooled runtime timer (the zero-alloc fast path,
// unchanged); on an installed Virtual clock it is a clock timer that
// fires when the driving goroutine advances time.
type callTimer struct {
	wall *time.Timer
	virt clock.Timer
	ch   <-chan time.Time
}

func (c *Caller) armTimer(d time.Duration) callTimer {
	if c.node.clk == nil {
		t := getTimer(d)
		return callTimer{wall: t, ch: t.C}
	}
	t := c.node.clk.NewTimer(d)
	return callTimer{virt: t, ch: t.C()}
}

func (t callTimer) release() {
	if t.wall != nil {
		putTimer(t.wall)
		return
	}
	t.virt.Stop()
}

// deliver sends one request according to the address semantics and
// waits for a definitive reply, walking failover waves on timeout or
// unreachability (§3.4, §4.3). Within a multi-element wave (SemAll,
// SemKofN) a dead replica's "no such object" does not defeat a live
// replica's answer: the caller keeps listening until a definitive
// reply, all contacted replicas have answered retryably, or the wave
// deadline passes.
//
// Verdict bookkeeping is per wave: if every wave fails, the returned
// retryable Result describes the LAST wave attempted, not a leftover
// reply from an earlier wave — a wave-1 "no such object" must not
// masquerade as the verdict when wave 2 timed out without answering.
//
// With a health tracker installed, waves are reordered to prefer
// healthy endpoints, endpoints whose breaker is open are skipped
// (fail-fast instead of burning a wave timeout on a known-dead
// replica), and every outcome is reported back: a send error or an
// unanswered wave timeout is a failure; ANY reply — even a retryable
// one — proves the endpoint alive. With no tracker and no context
// deadline the function is byte-for-byte the PR 1 fast path.
func (c *Caller) deliver(ctx context.Context, addr oa.Address, target loid.LOID, method string, args [][]byte, span *trace.Span) (*Result, error) {
	if len(addr.Elements) == 1 {
		// Single destination, no failover: the overwhelmingly common
		// case for a cached binding to an unreplicated object. Every
		// semantic reduces to one wave of one element here, so the
		// wave construction (two allocations) is skipped entirely.
		return c.deliverOne(ctx, addr.Elements[0], target, method, args, span)
	}
	waves := addr.Targets(c.intn)
	if len(waves) == 0 {
		return nil, fmt.Errorf("%w: empty address", ErrUnbound)
	}
	deadline := deadlineOf(ctx)
	var dlNanos int64
	if !deadline.IsZero() {
		dlNanos = deadline.UnixNano()
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	sc := span.Context()
	ht := c.health.Load()
	if ht != nil && len(waves) > 1 {
		sortWavesByHealth(ht, waves)
	}
	var last *Result
	skipped := 0
	for wi, wave := range waves {
		if ht != nil {
			wave = filterWave(ht, wave)
			if len(wave) == 0 {
				skipped++
				if span != nil {
					span.Event("breaker", fmt.Sprintf("wave %d skipped: all endpoints open", wi+1))
				}
				continue
			}
		}
		if wi > 0 && span != nil {
			span.Event("failover", fmt.Sprintf("wave %d", wi+1))
		}
		waveTimeout := c.Timeout
		if !deadline.IsZero() {
			remain := c.until(deadline)
			if remain <= 0 {
				span.Event("deadline", "budget exhausted before send")
				return &Result{Code: wire.ErrDeadlineExceeded, ErrText: ErrTimeout.Error()}, nil
			}
			if remain < waveTimeout {
				waveTimeout = remain
			}
		}
		var waveStart time.Time
		if ht != nil {
			waveStart = c.now()
		}
		f, contacted, err := c.sendTo(wave, target, method, args, dlNanos, ht, sc, true)
		if err != nil {
			last = &Result{Code: wire.ErrUnavailable, ErrText: err.Error()}
			continue
		}
		var replied []bool
		if ht != nil {
			replied = make([]bool, len(contacted))
		}
		var waveLast *Result
		timer := c.armTimer(waveTimeout)
		collected := 0
		waveDone := false
		for !waveDone {
			select {
			case res := <-f.ch:
				collected++
				if ht != nil {
					attributeReply(ht, contacted, replied, res.From, c.since(waveStart))
				}
				if !retryable(res.Code) {
					timer.release()
					c.node.cancel(f.id)
					c.node.putFuture(f)
					return res, nil
				}
				waveLast = res
				if collected >= len(contacted) {
					waveDone = true
				}
			case <-timer.ch:
				c.node.cancel(f.id)
				if ht != nil {
					// Endpoints that never answered within the wave
					// deadline are the health signal a silent crash
					// leaves behind.
					for i, e := range contacted {
						if !replied[i] {
							ht.ReportFailure(e)
						}
					}
				}
				if waveLast == nil {
					if !deadline.IsZero() && !c.now().Before(deadline) {
						span.Event("deadline", "expired awaiting reply")
						waveLast = &Result{Code: wire.ErrDeadlineExceeded, ErrText: ErrTimeout.Error()}
					} else {
						waveLast = &Result{Code: wire.ErrUnavailable, ErrText: ErrTimeout.Error()}
					}
				}
				waveDone = true
			case <-ctxDone:
				timer.release()
				c.node.cancel(f.id)
				c.node.putFuture(f)
				span.Event("deadline", "context cancelled")
				return &Result{Code: wire.ErrDeadlineExceeded, ErrText: ctx.Err().Error()}, nil
			}
		}
		timer.release()
		// The wave is settled: every contacted replica answered (the
		// final reply removed the pending entry) or the timeout branch
		// cancelled it — either way the future is out of the table and
		// safe to recycle.
		c.node.putFuture(f)
		last = waveLast
	}
	if last == nil {
		if skipped > 0 {
			// Every candidate endpoint sat behind an open breaker: fail
			// fast. The refresh/retry layer above decides what is next;
			// half-open probes will readmit traffic shortly.
			span.Event("breaker", "all destinations circuit-open")
			last = &Result{Code: wire.ErrUnavailable, ErrText: "all destinations circuit-open"}
		} else {
			last = &Result{Code: wire.ErrUnavailable, ErrText: "no reachable address"}
		}
	}
	return last, nil
}

// filterWave drops endpoints whose breaker rejects traffic, compacting
// in place (wave slices are freshly built by Targets, so mutation is
// safe and allocation-free).
func filterWave(ht *health.Tracker, wave []oa.Element) []oa.Element {
	n := 0
	for _, e := range wave {
		if ht.Allow(e) {
			wave[n] = e
			n++
		}
	}
	return wave[:n]
}

// sortWavesByHealth stably reorders failover waves so waves containing
// the healthiest (and among equals, fastest) endpoints are tried
// first — routing around sick replicas before they cost a timeout.
func sortWavesByHealth(ht *health.Tracker, waves [][]oa.Element) {
	rank := func(wave []oa.Element) (int, time.Duration) {
		best, bestLat := int(^uint(0)>>1), time.Duration(0)
		for _, e := range wave {
			r, l := ht.Rank(e), ht.Latency(e)
			if r < best || (r == best && l < bestLat) {
				best, bestLat = r, l
			}
		}
		return best, bestLat
	}
	sort.SliceStable(waves, func(i, j int) bool {
		ri, li := rank(waves[i])
		rj, lj := rank(waves[j])
		if ri != rj {
			return ri < rj
		}
		return li < lj
	})
}

// attributeReply credits a reply to the contacted endpoint it came
// from. Any reply proves the endpoint alive — a "no such object" is a
// healthy endpoint reporting a stale binding, not a sick one.
func attributeReply(ht *health.Tracker, contacted []oa.Element, replied []bool, from oa.Element, latency time.Duration) {
	if from == (oa.Element{}) {
		return
	}
	for i, e := range contacted {
		if e == from && !replied[i] {
			replied[i] = true
			ht.ReportSuccess(from, latency)
			return
		}
	}
	// Not in this wave (e.g. a late reply routed oddly); still counts
	// as proof of life.
	ht.ReportSuccess(from, latency)
}

func (c *Caller) sendRequest(addr oa.Address, target loid.LOID, method string, args [][]byte, dlNanos int64, sc trace.SpanContext) (*Future, error) {
	waves := addr.Targets(c.intn)
	if len(waves) == 0 {
		return nil, fmt.Errorf("%w: empty address", ErrUnbound)
	}
	f, _, err := c.sendTo(waves[0], target, method, args, dlNanos, c.health.Load(), sc, false)
	return f, err
}

// sendTo transmits one request wave, returning the future and the
// elements actually contacted (the input slice itself when every send
// succeeded, so the common case does not allocate). The request is
// marshalled ONCE into a pooled ref-counted buffer and handed to every
// transport zero-copy; a transport that needs the bytes past its own
// return takes its own reference, so the buffer recycles the moment
// the last holder lets go. Send failures are reported to ht when
// installed. pooled futures are recycled by the deliver loop; futures
// escaping to users must pass pooled=false.
func (c *Caller) sendTo(wave []oa.Element, target loid.LOID, method string, args [][]byte, dlNanos int64, ht *health.Tracker, sc trace.SpanContext, pooled bool) (*Future, []oa.Element, error) {
	f := c.node.newFuture(len(wave), pooled)
	env := c.env
	env.Deadline = dlNanos
	env.TraceID, env.SpanID, env.ParentSpanID = sc.TraceID, sc.SpanID, sc.ParentSpanID
	wb := buf.Get()
	wb.B = wire.AppendRequest(wb.B, wire.KindRequest, f.id, target, method, &env, c.node.Address(), args)
	sent := 0
	var lastErr error
	for _, e := range wave {
		if err := c.node.sendBuf(e, wb); err == nil {
			wave[sent] = e // compact in place; wave is freshly built by Targets
			sent++
		} else {
			lastErr = err
			if ht != nil {
				ht.ReportFailure(e)
			}
		}
	}
	wb.Release()
	if sent == 0 {
		c.node.cancel(f.id)
		c.node.putFuture(f)
		if lastErr == nil {
			lastErr = transport.ErrUnreachable
		}
		return nil, nil, lastErr
	}
	if sent < len(wave) {
		c.node.adjustPending(f.id, sent-len(wave))
	}
	return f, wave[:sent], nil
}

// sendOne is sendTo for the single-destination fast path: one pooled
// future, one marshal into a pooled buffer, one send — no wave
// bookkeeping at all.
func (c *Caller) sendOne(e oa.Element, target loid.LOID, method string, args [][]byte, dlNanos int64, ht *health.Tracker, sc trace.SpanContext) (*Future, error) {
	f := c.node.newFuture(1, true)
	env := c.env
	env.Deadline = dlNanos
	env.TraceID, env.SpanID, env.ParentSpanID = sc.TraceID, sc.SpanID, sc.ParentSpanID
	wb := buf.Get()
	wb.B = wire.AppendRequest(wb.B, wire.KindRequest, f.id, target, method, &env, c.node.Address(), args)
	err := c.node.sendBuf(e, wb)
	wb.Release()
	if err != nil {
		c.node.cancel(f.id)
		c.node.putFuture(f)
		if ht != nil {
			ht.ReportFailure(e)
		}
		return nil, err
	}
	return f, nil
}

// deliverOne is deliver's single-destination fast path: one wave of
// one element, the shape every cached binding to an unreplicated
// object produces. Semantics match deliver exactly (deadline clipping,
// breaker fail-fast, health attribution, retryable verdicts); what it
// sheds is the per-wave bookkeeping, and — for the mem fabric's
// zero-latency path, which completes the future on this very goroutine
// during the send — the reply is collected by a non-blocking poll
// before any timer is armed.
//
// When the target is co-resident AND runs its methods safely on the
// calling goroutine (an inline leaf, or an internally-synchronized
// concurrent service object), the call bypasses the fabric entirely:
// no marshal, no correlation id, no goroutine handoff — the paper's
// "as close to a raw message send as possible" (§5.2.1), beaten only
// by not sending at all. A registry miss falls through to the
// transport so a stale binding still earns its ErrNoSuchObject and the
// refresh machinery stays honest.
func (c *Caller) deliverOne(ctx context.Context, e oa.Element, target loid.LOID, method string, args [][]byte, span *trace.Span) (*Result, error) {
	deadline := deadlineOf(ctx)
	var dlNanos int64
	if !deadline.IsZero() {
		if !c.now().Before(deadline) {
			span.Event("deadline", "budget exhausted before send")
			return &Result{Code: wire.ErrDeadlineExceeded, ErrText: ErrTimeout.Error()}, nil
		}
		dlNanos = deadline.UnixNano()
	}
	sc := span.Context()
	if e == c.node.Element() {
		if v, ok := c.node.objects.Load(target.ID()); ok {
			o := v.(*Object)
			// A migration gate must see every arrival: while one is up
			// for the target, skip the bypass so the transport loopback
			// routes this call through the park/forward machinery. So does
			// a stopped but not yet unregistered object: the loopback
			// answers with the stale-binding verdict.
			if (o.inline || o.concurrency > 1) && !o.mailbox.isClosed() && !c.node.gated(target) {
				env := c.env
				env.Deadline = dlNanos
				env.TraceID, env.SpanID, env.ParentSpanID = sc.TraceID, sc.SpanID, sc.ParentSpanID
				return o.serveLocal(method, &env, args), nil
			}
		}
	}
	ht := c.health.Load()
	if ht != nil && !ht.Allow(e) {
		span.Event("breaker", "all destinations circuit-open")
		return &Result{Code: wire.ErrUnavailable, ErrText: "all destinations circuit-open"}, nil
	}
	waveTimeout := c.Timeout
	if !deadline.IsZero() {
		if remain := c.until(deadline); remain < waveTimeout {
			waveTimeout = remain
		}
	}
	var start time.Time
	if ht != nil {
		start = c.now()
	}
	f, err := c.sendOne(e, target, method, args, dlNanos, ht, sc)
	if err != nil {
		return &Result{Code: wire.ErrUnavailable, ErrText: err.Error()}, nil
	}
	// collect finishes the call once the (single) reply is in hand: the
	// pending entry removed itself when the reply landed, so the future
	// is free to recycle.
	collect := func(res *Result) (*Result, error) {
		if ht != nil && res.From != (oa.Element{}) {
			ht.ReportSuccess(res.From, c.since(start))
		}
		c.node.putFuture(f)
		return res, nil
	}
	select {
	case res := <-f.ch:
		return collect(res)
	default:
	}
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	timer := c.armTimer(waveTimeout)
	select {
	case res := <-f.ch:
		timer.release()
		return collect(res)
	case <-timer.ch:
		timer.release()
		c.node.cancel(f.id)
		c.node.putFuture(f)
		if ht != nil {
			ht.ReportFailure(e)
		}
		if !deadline.IsZero() && !c.now().Before(deadline) {
			span.Event("deadline", "expired awaiting reply")
			return &Result{Code: wire.ErrDeadlineExceeded, ErrText: ErrTimeout.Error()}, nil
		}
		return &Result{Code: wire.ErrUnavailable, ErrText: ErrTimeout.Error()}, nil
	case <-ctxDone:
		timer.release()
		c.node.cancel(f.id)
		c.node.putFuture(f)
		span.Event("deadline", "context cancelled")
		return &Result{Code: wire.ErrDeadlineExceeded, ErrText: ctx.Err().Error()}, nil
	}
}

// intn returns a value in [0,n) from a lock-free splitmix64 stream;
// address selection consults it on every deliver, so it must not
// serialize concurrent callers.
func (c *Caller) intn(n int) int {
	s := c.rngState.Add(0x9E3779B97F4A7C15)
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	hi, _ := bits.Mul64(s, uint64(n))
	return int(hi)
}
