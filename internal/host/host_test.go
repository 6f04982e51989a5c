package host

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/clock"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// counterImpl is a tiny stateful implementation: Inc() bumps a counter
// whose value round-trips through SaveState/RestoreState.
func counterFactory() rt.Impl {
	var n uint64
	return &rt.Behavior{
		Iface: idl.NewInterface("Counter",
			idl.MethodSig{Name: "Inc", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}},
			idl.MethodSig{Name: "Get", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}},
		),
		Handlers: map[string]rt.Handler{
			"Inc": func(inv *rt.Invocation) ([][]byte, error) {
				n++
				return [][]byte{wire.Uint64(n)}, nil
			},
			"Get": func(inv *rt.Invocation) ([][]byte, error) {
				return [][]byte{wire.Uint64(n)}, nil
			},
		},
		Save: func() ([]byte, error) { return wire.Uint64(n), nil },
		Restore: func(s []byte) error {
			v, err := wire.AsUint64(s)
			n = v
			return err
		},
	}
}

type hostFixture struct {
	fabric *transport.Fabric
	reg    *metrics.Registry // the host node's
	host   *Host
	hostL  loid.LOID
	client *Client
	caller *rt.Caller
}

func newHostFixture(t *testing.T) *hostFixture {
	t.Helper()
	f := transport.NewFabric(nil)
	t.Cleanup(func() { f.Close() })
	impls := implreg.NewRegistry()
	impls.MustRegister("counter", counterFactory)

	reg := metrics.NewRegistry()
	hostNode, err := rt.NewNode(f, reg, "host0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hostNode.Close() })
	hostL := loid.NewNoKey(loid.ClassIDLegionHost, 1)
	h := New(hostL, hostNode, impls, nil)
	if _, err := hostNode.Spawn(hostL, h); err != nil {
		t.Fatal(err)
	}

	clientNode, err := rt.NewNode(f, nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clientNode.Close() })
	caller := rt.NewCaller(clientNode, loid.NewNoKey(300, 1), nil)
	caller.Timeout = time.Second
	caller.AddBinding(binding.Forever(hostL, hostNode.Address()))
	return &hostFixture{fabric: f, reg: reg, host: h, hostL: hostL, client: NewClient(caller, hostL), caller: caller}
}

var objL = loid.NewNoKey(256, 1)

// startSet starts a set of counters on the fixture's host.
func (fx *hostFixture) startSet(ls ...loid.LOID) (uint64, error) {
	set := make([]persist.OPR, len(ls))
	for i, l := range ls {
		set[i] = persist.OPR{LOID: l, Impl: "counter"}
	}
	return StartObjects.Call(context.Background(), fx.client.Ref, set)
}

// start starts l on the fixture's host as a set of one and returns the
// host's address, where every object it starts runs.
func (fx *hostFixture) start(l loid.LOID, impl string, state []byte) (oa.Address, error) {
	_, err := StartObjects.Call(context.Background(), fx.client.Ref, []persist.OPR{{LOID: l, Impl: impl, State: state}})
	return fx.host.Address(), err
}

func TestStartObjectAndInvoke(t *testing.T) {
	fx := newHostFixture(t)
	n, err := fx.startSet(objL)
	if err != nil || n != 1 {
		t.Fatalf("StartObjects of one: %d started, %v", n, err)
	}
	fx.caller.AddBinding(binding.Forever(objL, fx.host.Address()))
	res, err := fx.caller.Call(objL, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Inc: %v %v", res, err)
	}
	if fx.host.Running() != 1 {
		t.Errorf("Running = %d", fx.host.Running())
	}
}

// TestStartObjectIdempotent: an object the host already runs counts as
// started and takes no capacity. A second start of it is answered, even
// by a full host (a start retried after its reply was lost), and a set
// reserves capacity only for the objects that arrive.
func TestStartObjectIdempotent(t *testing.T) {
	fx := newHostFixture(t)
	for i := range 2 {
		if n, err := fx.startSet(objL); err != nil || n != 1 {
			t.Fatalf("start %d of X: %d started, %v", i+1, n, err)
		}
	}
	if fx.host.Running() != 1 {
		t.Errorf("Running = %d", fx.host.Running())
	}
	if _, err := SetCPULoad.Call(context.Background(), fx.client.Ref, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := fx.startSet(objL); err != nil || n != 1 {
		t.Errorf("full host running X, set {X}: %d started, %v; want 1, nil", n, err)
	}
	if _, err := SetCPULoad.Call(context.Background(), fx.client.Ref, 2); err != nil {
		t.Fatal(err)
	}
	if n, err := fx.startSet(objL, loid.NewNoKey(256, 2)); err != nil || n != 2 {
		t.Errorf("limit 2 running X, set {X, Y}: %d started, %v; want 2, nil", n, err)
	}
	if fx.host.Running() != 2 {
		t.Errorf("Running = %d, want 2", fx.host.Running())
	}
}

func TestStartObjectUnknownImpl(t *testing.T) {
	fx := newHostFixture(t)
	if _, err := fx.start(objL, "ghost", nil); err == nil {
		t.Error("unknown impl started")
	}
}

func TestStartObjectRestoresState(t *testing.T) {
	fx := newHostFixture(t)
	addr, err := fx.start(objL, "counter", wire.Uint64(41))
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(binding.Forever(objL, addr))
	res, err := fx.caller.Call(objL, "Inc")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 42 {
		t.Errorf("counter after restore = %d, want 42", v)
	}
}

func TestStopObjectSavesState(t *testing.T) {
	fx := newHostFixture(t)
	addr, _ := fx.start(objL, "counter", nil)
	fx.caller.AddBinding(binding.Forever(objL, addr))
	for i := 0; i < 5; i++ {
		fx.caller.Call(objL, "Inc")
	}
	state, impl, err := fx.client.StopObject(objL)
	if err != nil {
		t.Fatal(err)
	}
	if impl != "counter" {
		t.Errorf("impl = %q", impl)
	}
	if v, _ := wire.AsUint64(state); v != 5 {
		t.Errorf("saved state = %d, want 5", v)
	}
	if fx.host.Running() != 0 {
		t.Errorf("Running = %d after stop", fx.host.Running())
	}
	// The object is gone: callers now observe stale bindings.
	fx.caller.Retry.MaxAttempts = 1
	res, _ := fx.caller.Call(objL, "Inc")
	if res.Code != wire.ErrNoSuchObject {
		t.Errorf("post-stop call = %v", res.Code)
	}
	// Reactivation from the saved state continues the count.
	addr, err = fx.start(objL, impl, state)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.Retry.MaxAttempts = 3
	res, err = fx.caller.Call(objL, "Inc")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 6 {
		t.Errorf("counter after reactivation = %d, want 6", v)
	}
}

func TestStopUnknownObject(t *testing.T) {
	fx := newHostFixture(t)
	if _, _, err := fx.client.StopObject(objL); err == nil {
		t.Error("StopObject of absent object succeeded")
	}
}

func TestEvictObjectsDiscardsState(t *testing.T) {
	fx := newHostFixture(t)
	fx.start(objL, "counter", nil)
	if _, err := EvictObjects.Call(context.Background(), fx.client.Ref, []loid.LOID{objL}, oa.Address{}); err != nil {
		t.Fatal(err)
	}
	if fx.host.Running() != 0 {
		t.Error("object survived EvictObjects")
	}
	// Evicting an absent object is not an error (idempotent reaping).
	if _, err := EvictObjects.Call(context.Background(), fx.client.Ref, []loid.LOID{objL}, oa.Address{}); err != nil {
		t.Errorf("idempotent evict: %v", err)
	}
}

// TestCrashDropsDrainGate: a crash in the middle of a drain takes the
// object's migration gate with it. A call to the dead object then meets
// the ordinary verdict for an object that is not here, at once, instead
// of parking at a gate nobody will settle until its wave times out.
func TestCrashDropsDrainGate(t *testing.T) {
	fx := newHostFixture(t)
	addr, err := fx.start(objL, "counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(binding.Forever(objL, addr))
	if _, err := DrainObjects.Call(context.Background(), fx.client.Ref, []loid.LOID{objL}); err != nil {
		t.Fatal(err)
	}
	if lost := fx.host.CrashResidents(); len(lost) != 1 {
		t.Fatalf("crash lost %v, want the one resident", lost)
	}
	fx.caller.Retry.MaxAttempts = 1
	t0 := time.Now()
	res, err := fx.caller.Call(objL, "Inc")
	if err != nil || res.Code != wire.ErrNoSuchObject {
		t.Errorf("call after the crash: %v %v, want ErrNoSuchObject", res, err)
	}
	if d := time.Since(t0); d > fx.caller.Timeout/4 {
		t.Errorf("call after the crash answered after %v, wave timeout %v", d, fx.caller.Timeout)
	}
}

// TestExitSetVerbs: each exit verb takes a set. DrainObjects of
// {X, Y, Z}, where Y cannot save its state, answers X and Z in order,
// and Y keeps serving. EvictObjects with an address forwards X's parked
// calls there in arrival order, and a late call after them; and
// ReopenObjects replays Z's parked calls locally, in arrival order.
func TestExitSetVerbs(t *testing.T) {
	fx := newHostFixture(t)
	fx.host.impls.MustRegister("nosave", func() rt.Impl {
		impl := counterFactory().(*rt.Behavior)
		impl.Save = func() ([]byte, error) { return nil, errors.New("cannot save") }
		return impl
	})
	x, y, z := loid.NewNoKey(256, 1), loid.NewNoKey(256, 2), loid.NewNoKey(256, 3)
	for _, o := range []persist.OPR{{LOID: x, Impl: "counter"}, {LOID: y, Impl: "nosave"}, {LOID: z, Impl: "counter", State: wire.Uint64(10)}} {
		if _, err := fx.start(o.LOID, o.Impl, o.State); err != nil {
			t.Fatal(err)
		}
		fx.caller.AddBinding(binding.Forever(o.LOID, fx.host.Address()))
	}
	inc := func(l loid.LOID) uint64 {
		t.Helper()
		res, err := fx.caller.Call(l, "Inc")
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("Inc %v: %v", l, err)
		}
		raw, _ := res.Result(0)
		v, _ := wire.AsUint64(raw)
		return v
	}
	inc(x)

	drained, err := DrainObjects.Call(context.Background(), fx.client.Ref, []loid.LOID{x, y, z})
	if err != nil {
		t.Fatal(err)
	}
	if len(drained) != 2 || !drained[0].LOID.SameObject(x) || !drained[1].LOID.SameObject(z) {
		t.Fatalf("DrainObjects of {X, Y, Z} answered %v, want X and Z", drained)
	}
	for i, want := range []uint64{1, 10} {
		if v, _ := wire.AsUint64(drained[i].State); v != want || drained[i].Impl != "counter" {
			t.Errorf("drained %v: %s state %d, want counter state %d", drained[i].LOID, drained[i].Impl, v, want)
		}
	}
	if got := inc(y); got != 1 {
		t.Errorf("Y after its failed drain counts %d, want 1", got)
	}

	// Three calls park at each of X and Z.
	const parked = 3
	calls := map[loid.LOID][]*rt.Future{}
	for range parked {
		for _, l := range []loid.LOID{x, z} {
			fu, err := fx.caller.InvokeCtx(context.Background(), l, "Inc")
			if err != nil {
				t.Fatal(err)
			}
			calls[l] = append(calls[l], fu)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); fx.reg.CounterValue("mig/parked") < 2*parked; {
		if time.Now().After(deadline) {
			t.Fatalf("%d calls parked, want %d", fx.reg.CounterValue("mig/parked"), 2*parked)
		}
		time.Sleep(time.Millisecond)
	}

	// X's new home runs it from its drained state.
	dst, err := rt.NewNode(fx.fabric, nil, "dest")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	moved := counterFactory()
	if err := moved.RestoreState(drained[0].State); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Spawn(x, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := EvictObjects.Call(context.Background(), fx.client.Ref, []loid.LOID{x}, dst.Address()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReopenObjects.Call(context.Background(), fx.client.Ref, []loid.LOID{z}); err != nil {
		t.Fatal(err)
	}
	for l, base := range map[loid.LOID]uint64{x: 1, z: 10} {
		for k, fu := range calls[l] {
			res, err := fu.Wait(2 * time.Second)
			if err == nil {
				err = res.Err()
			}
			if err != nil {
				t.Fatalf("parked call %d to %v: %v", k, l, err)
			}
			raw, _ := res.Result(0)
			if v, _ := wire.AsUint64(raw); v != base+uint64(k)+1 {
				t.Errorf("parked call %d to %v counts %d, want %d (arrival order)", k, l, v, base+uint64(k)+1)
			}
		}
	}
	if _, ok := fx.host.Node().Lookup(x); ok || fx.host.Running() != 2 {
		t.Errorf("after evicting X the host runs %d objects, X among them: %v", fx.host.Running(), ok)
	}
	fx.caller.AddBinding(binding.Forever(x, fx.host.Address()))
	if got := inc(x); got != 1+parked+1 {
		t.Errorf("a late call to X through the tombstone counts %d, want %d", got, 1+parked+1)
	}
}

func TestCapacityLimit(t *testing.T) {
	fx := newHostFixture(t)
	if _, err := SetCPULoad.Call(context.Background(), fx.client.Ref, 2); err != nil {
		t.Fatal(err)
	}
	fx.start(loid.NewNoKey(256, 1), "counter", nil)
	fx.start(loid.NewNoKey(256, 2), "counter", nil)
	_, err := fx.start(loid.NewNoKey(256, 3), "counter", nil)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Errorf("over-capacity start: %v", err)
	}
	// Stopping one frees a slot.
	fx.client.StopObject(loid.NewNoKey(256, 1))
	if _, err := fx.start(loid.NewNoKey(256, 3), "counter", nil); err != nil {
		t.Errorf("start after free: %v", err)
	}
}

func TestGetStateReportsLoad(t *testing.T) {
	fx := newHostFixture(t)
	_, _ = SetCPULoad.Call(context.Background(), fx.client.Ref, 8)
	_, _ = SetMemoryUsage.Call(context.Background(), fx.client.Ref, 1<<20)
	fx.start(objL, "counter", nil)
	st, err := GetState.Call(context.Background(), fx.client.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 || st.CPULimit != 8 || st.MemLimit != 1<<20 {
		t.Errorf("state = %+v", st)
	}
}

func TestHostStatePersistsLimits(t *testing.T) {
	fx := newHostFixture(t)
	_, _ = SetCPULoad.Call(context.Background(), fx.client.Ref, 4)
	_, _ = SetMemoryUsage.Call(context.Background(), fx.client.Ref, 77)
	blob, err := fx.host.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	h2 := New(loid.NewNoKey(loid.ClassIDLegionHost, 2), fx.host.Node(), implreg.NewRegistry(), nil)
	if err := h2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if h2.cpuLimit != 4 || h2.memLimit != 77 {
		t.Errorf("restored limits = %d/%d", h2.cpuLimit, h2.memLimit)
	}
	if err := h2.RestoreState([]byte{1, 2, 3}); err == nil {
		t.Error("bad state accepted")
	}
	if err := h2.RestoreState(nil); err != nil {
		t.Error("empty state rejected")
	}
}

// TestConcurrentImplGetsWorkers: implementations registered as
// concurrency-safe are spawned with multiple dispatch workers — two
// slow calls overlap instead of serializing.
func TestConcurrentImplGetsWorkers(t *testing.T) {
	fx := newHostFixture(t)
	gate := make(chan struct{})
	inFlight := make(chan struct{}, 2)
	fx.host.impls.MustRegisterConcurrent("slowpair", func() rt.Impl {
		return &rt.Behavior{
			Iface: idl.NewInterface("SlowPair", idl.MethodSig{Name: "Slow"}),
			Handlers: map[string]rt.Handler{
				"Slow": func(inv *rt.Invocation) ([][]byte, error) {
					inFlight <- struct{}{}
					<-gate
					return nil, nil
				},
			},
		}
	})
	l := loid.NewNoKey(256, 70)
	addr, err := fx.start(l, "slowpair", nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(binding.Forever(l, addr))
	f1, err := fx.caller.InvokeCtx(context.Background(), l, "Slow")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fx.caller.InvokeCtx(context.Background(), l, "Slow")
	if err != nil {
		t.Fatal(err)
	}
	// Both calls must be in flight simultaneously.
	for i := 0; i < 2; i++ {
		select {
		case <-inFlight:
		case <-time.After(2 * time.Second):
			t.Fatal("second call never started: impl not concurrent")
		}
	}
	close(gate)
	if _, err := f1.Wait(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Wait(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLoopStartSchedulesTicker: StartCheckpointer and StartLoadReporter
// have scheduled their ticker by the time they return, so time a
// virtual clock advances right after Start counts towards the first
// tick instead of passing before the loop is listening.
func TestLoopStartSchedulesTicker(t *testing.T) {
	fx := newHostFixture(t)
	v := clock.NewVirtual(time.Time{})
	fx.host.Node().SetClock(v) // before any traffic
	mag := loid.NewNoKey(loid.ClassIDMagistrate, 1)

	p0 := v.Pending()
	fx.host.StartCheckpointer(mag, fx.host.Address(), time.Second)
	t.Cleanup(fx.host.StopCheckpointer)
	if got := v.Pending(); got != p0+1 {
		t.Errorf("after StartCheckpointer %d events are pending, want %d", got, p0+1)
	}
	fx.host.StartLoadReporter(mag, fx.host.Address(), time.Second)
	t.Cleanup(fx.host.StopLoadReporter)
	if got := v.Pending(); got != p0+2 {
		t.Errorf("after StartLoadReporter %d events are pending, want %d", got, p0+2)
	}
}
