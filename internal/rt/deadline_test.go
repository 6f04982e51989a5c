package rt

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/health"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/wire"
)

// TestDeadlinePropagatesToNestedHop is the acceptance test for
// deadline propagation: a client calls a proxy object with a bounded
// budget; the proxy makes a nested call to an inner object using
// inv.Ctx(). The inner hop must observe the CLIENT's absolute
// deadline — a remaining budget strictly under its own 2s default
// timer — not a fresh full timer of its own.
func TestDeadlinePropagatesToNestedHop(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)

	innerLOID := loid.NewNoKey(256, 41)
	proxyLOID := loid.NewNoKey(256, 42)

	var innerDeadline atomic.Int64  // Env.Deadline as seen by the inner hop
	var innerRemaining atomic.Int64 // nanoseconds of budget left at dispatch
	inner := &Behavior{
		Iface: idl.NewInterface("Inner", idl.MethodSig{Name: "Probe"}),
		Handlers: map[string]Handler{
			"Probe": func(inv *Invocation) ([][]byte, error) {
				innerDeadline.Store(inv.Env.Deadline)
				if !inv.Deadline.IsZero() {
					innerRemaining.Store(int64(time.Until(inv.Deadline)))
				}
				return nil, nil
			},
		},
	}
	if _, err := nodes[1].Spawn(innerLOID, inner); err != nil {
		t.Fatal(err)
	}

	proxy := &Behavior{
		Iface: idl.NewInterface("Proxy", idl.MethodSig{Name: "Relay"}),
		Handlers: map[string]Handler{
			"Relay": func(inv *Invocation) ([][]byte, error) {
				// The nested hop inherits the remaining budget via the
				// invocation context.
				res, err := inv.Obj.Caller().CallCtx(inv.Ctx(), innerLOID, "Probe")
				if err != nil {
					return nil, err
				}
				return nil, res.Err()
			},
		},
	}
	po, err := nodes[0].Spawn(proxyLOID, proxy)
	if err != nil {
		t.Fatal(err)
	}
	po.Caller().AddBinding(binding.Forever(innerLOID, nodes[1].Address()))

	c := clientOn(nodes[2], clientLOID)
	c.AddBinding(binding.Forever(proxyLOID, nodes[0].Address()))

	budget := 1500 * time.Millisecond
	ctx := invCtx{t: time.Now().Add(budget)}
	res, err := c.CallCtx(ctx, proxyLOID, "Relay")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.OK {
		t.Fatalf("Relay failed: %v %s", res.Code, res.ErrText)
	}

	gotDeadline := innerDeadline.Load()
	if gotDeadline == 0 {
		t.Fatal("inner hop saw no propagated deadline")
	}
	if want := ctx.t.UnixNano(); gotDeadline != want {
		t.Errorf("inner hop deadline = %d, want the client's %d (propagated verbatim)", gotDeadline, want)
	}
	remaining := time.Duration(innerRemaining.Load())
	if remaining <= 0 {
		t.Fatal("inner hop had no remaining budget")
	}
	if remaining >= 2*time.Second {
		t.Errorf("inner hop remaining budget = %v, want < 2s (must inherit, not arm a fresh timer)", remaining)
	}
	if remaining > budget {
		t.Errorf("inner hop remaining budget %v exceeds the client's %v", remaining, budget)
	}
}

// TestCallCtxDeadlineBoundsWait: with a context deadline shorter than
// the per-wave Timeout, an unresponsive target must yield a definitive
// ErrDeadlineExceeded when the budget expires — not after the full
// wave timer, and with no retries burned on a spent budget.
func TestCallCtxDeadlineBoundsWait(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	block := make(chan struct{})
	defer close(block)
	hangLOID := loid.NewNoKey(256, 43)
	impl := &Behavior{
		Iface: idl.NewInterface("Stuck", idl.MethodSig{Name: "Hang"}),
		Handlers: map[string]Handler{
			"Hang": func(inv *Invocation) ([][]byte, error) { <-block; return nil, nil },
		},
	}
	if _, err := nodes[0].Spawn(hangLOID, impl); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.Timeout = 2 * time.Second
	c.AddBinding(binding.Forever(hangLOID, nodes[0].Address()))

	start := time.Now()
	ctx := invCtx{t: time.Now().Add(120 * time.Millisecond)}
	res, err := c.CallCtx(ctx, hangLOID, "Hang")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrDeadlineExceeded {
		t.Fatalf("Code = %v, want ErrDeadlineExceeded", res.Code)
	}
	if elapsed > time.Second {
		t.Errorf("call took %v; the 120ms deadline should have bounded it well under the 2s wave timer", elapsed)
	}
}

// TestServerRejectsExpiredDeadline: a request whose deadline expired
// while it sat in the mailbox is answered ErrDeadlineExceeded without
// running the method — the caller gave up, so the work is waste.
func TestServerRejectsExpiredDeadline(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	block := make(chan struct{})
	var calls atomic.Int32
	busyLOID := loid.NewNoKey(256, 44)
	impl := &Behavior{
		Iface: idl.NewInterface("Busy", idl.MethodSig{Name: "Work"}),
		Handlers: map[string]Handler{
			"Work": func(inv *Invocation) ([][]byte, error) {
				calls.Add(1)
				<-block
				return nil, nil
			},
		},
	}
	if _, err := nodes[0].Spawn(busyLOID, impl); err != nil { // default: 1 worker
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(busyLOID, nodes[0].Address()))

	// Occupy the single dispatch worker…
	f1, err := c.InvokeCtx(context.Background(), busyLOID, "Work")
	if err != nil {
		t.Fatal(err)
	}
	// …then queue a request with a short deadline behind it.
	ctx := invCtx{t: time.Now().Add(80 * time.Millisecond)}
	f2, err := c.InvokeCtx(ctx, busyLOID, "Work")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let the queued deadline expire
	close(block)

	res2, err := f2.Wait(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Code != wire.ErrDeadlineExceeded {
		t.Errorf("queued call Code = %v, want ErrDeadlineExceeded", res2.Code)
	}
	if res1, err := f1.Wait(2 * time.Second); err != nil || res1.Code != wire.OK {
		t.Fatalf("first call: %v, %v", res1, err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("handler ran %d times, want 1 (expired request must not dispatch)", got)
	}
}

// TestRetryBudgetBoundsRetries: with an exhausted token bucket, a
// failing call stops after its first attempt instead of burning
// MaxAttempts against a dead destination.
func TestRetryBudgetBoundsRetries(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	r := newMapResolver()
	dead := oa.Single(oa.MemElement(99999)) // no such endpoint: sends fail instantly
	target := loid.NewNoKey(256, 45)
	r.set(binding.Forever(target, dead))

	c := NewCaller(nodes[0], clientLOID, r)
	c.Timeout = 100 * time.Millisecond
	c.Retry = RetryPolicy{MaxAttempts: 6}
	c.Budget = NewRetryBudget(1, 0) // one retry token, no refill

	res, err := c.Call(target, "Echo")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrUnavailable {
		t.Fatalf("Code = %v, want ErrUnavailable", res.Code)
	}
	r.mu.Lock()
	refreshes := r.refreshs
	r.mu.Unlock()
	if refreshes != 1 {
		t.Errorf("resolver refreshed %d times, want 1 (budget allowed one retry of six)", refreshes)
	}
}

// TestBackoffFullJitter pins the backoff envelope: ceiling doubles
// from BaseBackoff up to MaxBackoff, the draw is uniform in
// [0, ceiling], and an unset BaseBackoff disables sleeping entirely.
func TestBackoffFullJitter(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	maxDraw := func(n int) int { return n - 1 } // deterministic: always the ceiling
	for retry, want := range []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		40 * time.Millisecond, // capped
	} {
		if got := p.backoff(retry, maxDraw); got != want {
			t.Errorf("backoff(retry=%d) ceiling = %v, want %v", retry, got, want)
		}
	}
	zeroDraw := func(n int) int { return 0 }
	if got := p.backoff(3, zeroDraw); got != 0 {
		t.Errorf("full jitter must admit 0; got %v", got)
	}
	none := RetryPolicy{}
	if got := none.backoff(5, maxDraw); got != 0 {
		t.Errorf("zero policy must not sleep; got %v", got)
	}
}

// TestHealthBreakerSkipsDeadReplica: a dead replica inside a SemAll
// wave fails on every call; once the breaker opens, subsequent calls
// drop it from the wave (counted in health/skipped) and are served by
// the live replica alone.
func TestHealthBreakerSkipsDeadReplica(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	deadElem := oa.MemElement(88888) // never existed: sends fail instantly

	// SemAll: both replicas share one wave, so ordering cannot route
	// around the dead one — only the breaker can.
	addr := oa.Replicated(oa.SemAll, 0, deadElem, nodes[0].Element())

	reg := metrics.NewRegistry()
	tr := health.NewTracker(health.Config{FailureThreshold: 3, OpenDuration: time.Minute}, reg)
	c := clientOn(nodes[1], clientLOID)
	c.Timeout = 200 * time.Millisecond
	c.SetHealth(tr)

	for i := 0; i < 6; i++ {
		res, err := c.CallAddrCtx(context.Background(), addr, echoLOID, "Echo", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Code != wire.OK {
			t.Fatalf("call %d: %v %s", i, res.Code, res.ErrText)
		}
	}
	if st := tr.StateOf(deadElem); st != health.Open {
		t.Errorf("dead replica breaker = %v, want open after repeated send failures", st)
	}
	if st := tr.StateOf(nodes[0].Element()); st != health.Closed {
		t.Errorf("live replica breaker = %v, want closed", st)
	}
	if skipped := reg.Counter("health/skipped").Value(); skipped == 0 {
		t.Error("open breaker never skipped the dead replica")
	}

	// Wave ordering: with SemOrdered, the sick replica's wave moves
	// behind the healthy one, so calls stop paying for it at all.
	ordered := oa.Replicated(oa.SemOrdered, 0, deadElem, nodes[0].Element())
	res, err := c.CallAddrCtx(context.Background(), ordered, echoLOID, "Echo", []byte("y"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("ordered call through health layer: %v %v", res, err)
	}
}
