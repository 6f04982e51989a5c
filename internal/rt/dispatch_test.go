package rt

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// holdImpl serves "Hold": each call waits until release is closed. It
// records how many calls are inside Dispatch at once.
type holdImpl struct {
	release  chan struct{}
	inFlight atomic.Int64
	peak     atomic.Int64
	served   atomic.Int64
}

func newHoldImpl() *holdImpl { return &holdImpl{release: make(chan struct{})} }

func (h *holdImpl) Interface() *idl.Interface   { return nil }
func (h *holdImpl) SaveState() ([]byte, error)  { return nil, nil }
func (h *holdImpl) RestoreState(s []byte) error { return nil }

func (h *holdImpl) Dispatch(inv *Invocation) ([][]byte, error) {
	n := h.inFlight.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
	<-h.release
	h.inFlight.Add(-1)
	h.served.Add(1)
	return nil, nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchFollowsWork: dispatch goroutines are paid for by requests
// being served, not by objects being active. Calling each of 1 040
// objects once leaves no goroutine behind per object; objects blocked in
// their handlers do not hold up another object's call; and
// WithConcurrency(n) bounds the dispatches in flight at n.
func TestDispatchFollowsWork(t *testing.T) {
	f := transport.NewFabric(nil)
	t.Cleanup(func() { f.Close() })
	reg := metrics.NewRegistry()
	newNode := func(name string) *Node {
		n, err := NewNode(f, reg, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	srv := newNode("srv")
	c := clientOn(newNode("cli"), clientLOID)
	// The most goroutines the pool keeps idle, plus room for the ones
	// still returning to it.
	const slack = dispatchShards*idlePerShard + 8

	t.Run("goroutines", func(t *testing.T) {
		before := runtime.NumGoroutine()
		spawns0 := reg.CounterValue("rt/dispatch_spawns")
		var objs []loid.LOID
		for i := 0; i < 1024; i++ {
			l := loid.NewNoKey(500, uint64(i+1))
			spawnEcho(t, srv, l)
			objs = append(objs, l)
		}
		for i := 0; i < 16; i++ {
			l := loid.NewNoKey(501, uint64(i+1))
			spawnEcho(t, srv, l, WithConcurrency(16))
			objs = append(objs, l)
		}
		if rise := runtime.NumGoroutine() - before; rise > 0 {
			t.Errorf("spawning %d objects started %d goroutines", len(objs), rise)
		}
		for _, l := range objs {
			res, err := c.CallAddrCtx(context.Background(), srv.Address(), l, "Echo", []byte("once"))
			if err != nil || res.Code != wire.OK {
				t.Fatalf("call %v: %v %v", l, res, err)
			}
		}
		rise := runtime.NumGoroutine() - before
		spawns := reg.CounterValue("rt/dispatch_spawns") - spawns0
		t.Logf("%d objects called once: %d more goroutines, %d dispatch goroutines started", len(objs), rise, spawns)
		if rise > slack {
			t.Errorf("%d objects called once left %d more goroutines, want at most %d", len(objs), rise, slack)
		}
		if spawns > slack {
			t.Errorf("rt/dispatch_spawns rose by %d over %d sequential calls, want at most %d", spawns, len(objs), slack)
		}
	})

	t.Run("blocked", func(t *testing.T) {
		// More blocked objects than the pool keeps idle, so serving the
		// last one needs goroutines started on demand.
		const k = slack + 8
		hold := newHoldImpl()
		var futures []*Future
		for i := 0; i < k; i++ {
			l := loid.NewNoKey(502, uint64(i+1))
			if _, err := srv.Spawn(l, hold); err != nil {
				t.Fatal(err)
			}
			c.AddBinding(binding.Forever(l, srv.Address()))
			fu, err := c.InvokeCtx(context.Background(), l, "Hold")
			if err != nil {
				t.Fatal(err)
			}
			futures = append(futures, fu)
		}
		defer func() {
			close(hold.release)
			for _, fu := range futures {
				if res, err := fu.Wait(10 * time.Second); err != nil || res.Code != wire.OK {
					t.Errorf("held call: %v %v", res, err)
				}
			}
		}()
		waitFor(t, "every object is blocked in its handler", func() bool { return hold.inFlight.Load() == k })
		free := loid.NewNoKey(502, k+1)
		spawnEcho(t, srv, free)
		res, err := c.CallAddrCtx(context.Background(), srv.Address(), free, "Echo", []byte("free"))
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call to an idle object while %d others block: %v %v", k, res, err)
		}
	})

	t.Run("concurrency", func(t *testing.T) {
		const limit, calls = 4, 16
		hold := newHoldImpl()
		l := loid.NewNoKey(503, 1)
		if _, err := srv.Spawn(l, hold, WithConcurrency(limit)); err != nil {
			t.Fatal(err)
		}
		c.AddBinding(binding.Forever(l, srv.Address()))
		var futures []*Future
		for i := 0; i < calls; i++ {
			fu, err := c.InvokeCtx(context.Background(), l, "Hold")
			if err != nil {
				t.Fatal(err)
			}
			futures = append(futures, fu)
		}
		waitFor(t, "the object has 4 dispatches in flight", func() bool { return hold.inFlight.Load() == limit })
		close(hold.release)
		for _, fu := range futures {
			if res, err := fu.Wait(10 * time.Second); err != nil || res.Code != wire.OK {
				t.Fatalf("call: %v %v", res, err)
			}
		}
		if p, n := hold.peak.Load(), hold.served.Load(); p != limit || n != calls {
			t.Errorf("peak %d dispatches in flight over %d served, want %d over %d", p, n, limit, calls)
		}
	})
}

// bindProbe is a concurrent Binder whose Dispatch needs the handle Bind
// gave it, like the Host, Magistrate, class and agent objects.
type bindProbe struct{ obj *Object }

func (b *bindProbe) Interface() *idl.Interface   { return nil }
func (b *bindProbe) SaveState() ([]byte, error)  { return nil, nil }
func (b *bindProbe) RestoreState(s []byte) error { return nil }
func (b *bindProbe) Bind(o *Object)              { b.obj = o }

func (b *bindProbe) Dispatch(inv *Invocation) ([][]byte, error) {
	if b.obj == nil {
		return nil, errors.New("dispatched before Bind")
	}
	return nil, nil
}

// TestSpawnBindsBeforePublish: a co-resident caller hammering an object
// while it is spawned reaches it through the bypass (a concurrent
// object), and its first dispatch must already see Bind's handle. Run it
// under -race: a Bind after publication races with that first read.
func TestSpawnBindsBeforePublish(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	node := nodes[0]
	c := clientOn(node, clientLOID)
	c.Retry.MaxAttempts = 1
	target := loid.NewNoKey(504, 1)
	c.AddBinding(binding.Forever(target, node.Address()))
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for served := 0; served < 3; {
				res, err := c.Call(target, "Probe")
				switch {
				case err != nil:
					t.Error(err)
					return
				case res.Code == wire.OK:
					served++
				case res.Code != wire.ErrNoSuchObject:
					t.Errorf("round %d: %v", round, res.Err())
					return
				}
			}
		}()
		if _, err := node.Spawn(target, &bindProbe{}, WithConcurrency(2)); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		node.Kill(target)
	}
}

// onStack reports whether the running goroutine's stack holds a frame
// of fn: a method uses it to tell whose goroutine serves it.
func onStack(fn string) bool {
	buf := make([]byte, 64<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), fn)
}

// onCallerStack answers whether the method runs on the goroutine of
// the Caller that sent the request.
func onCallerStack(*Invocation) ([][]byte, error) {
	return [][]byte{wire.Bool(onStack("rt.(*Caller).deliver"))}, nil
}

// resultBool decodes result i of res as a bool; anything else is false.
func resultBool(res *Result, i int) bool {
	raw, _ := res.Result(i)
	v, _ := wire.AsBool(raw)
	return v
}

// holdIdlePool takes every idle dispatch goroutine out of the pool, so
// the test's own hand-offs must start fresh ones, and gives them back at
// cleanup with an empty object to drain.
func holdIdlePool(t *testing.T) {
	var held []chan *Object
	for work := takeIdle(); work != nil; work = takeIdle() {
		held = append(held, work)
	}
	t.Cleanup(func() {
		for _, work := range held {
			idle := &Object{}
			idle.mailbox.init()
			work <- idle
		}
	})
}

// TestWaitingCallerServesItself: sequential Calls from one caller to an
// idle single-worker object on another node of the mem fabric are served
// on the caller's goroutine, which takes the drainer's place: no
// dispatch goroutine is started or handed the object.
func TestWaitingCallerServesItself(t *testing.T) {
	holdIdlePool(t)
	f := transport.NewFabric(nil)
	t.Cleanup(func() { f.Close() })
	reg := metrics.NewRegistry()
	srv, err := NewNode(f, reg, "srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := NewNode(f, nil, "cli")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	impl := spawnEcho(t, srv, echoLOID)
	c := clientOn(cli, clientLOID)
	c.AddBinding(binding.Forever(echoLOID, srv.Address()))
	const calls = 64
	for i := 0; i < calls; i++ {
		res, err := c.Call(echoLOID, "Echo", []byte("x"))
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call %d: %v %v", i, res, err)
		}
	}
	impl.mu.Lock()
	served := impl.calls
	impl.mu.Unlock()
	if served != calls {
		t.Errorf("served %d calls, want %d", served, calls)
	}
	if n := reg.CounterValue("rt/dispatch_spawns"); n != 0 {
		t.Errorf("%d sequential calls started %d dispatch goroutines, want 0", calls, n)
	}
}

// TestInvokeCtxHandsOff: a request whose sender does not wait on it is
// never served on the sender's goroutine. InvokeCtx on a method that
// blocks until the test releases it returns its Future while the method
// runs; a Call to the same object runs on the caller's own stack.
func TestInvokeCtxHandsOff(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	entered, release := make(chan struct{}, 1), make(chan struct{})
	l := loid.NewNoKey(505, 1)
	impl := &Behavior{
		Iface: idl.NewInterface("Held", idl.MethodSig{Name: "Block"}, idl.MethodSig{Name: "OnCallerStack"}),
		Handlers: map[string]Handler{
			"Block": func(*Invocation) ([][]byte, error) {
				entered <- struct{}{}
				<-release
				return nil, nil
			},
			"OnCallerStack": onCallerStack,
		},
	}
	o, err := nodes[0].Spawn(l, impl)
	if err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(l, nodes[0].Address()))

	invoked := make(chan *Future, 1)
	go func() {
		fu, err := c.InvokeCtx(context.Background(), l, "Block")
		if err != nil {
			t.Error(err)
		}
		invoked <- fu
	}()
	<-entered
	var fu *Future
	select {
	case fu = <-invoked:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("InvokeCtx did not return while its method ran")
	}
	close(release)
	if fu == nil {
		t.FailNow()
	}
	if res, err := fu.Wait(5 * time.Second); err != nil || res.Code != wire.OK {
		t.Fatalf("Block: %v %v", res, err)
	}
	// The reply goes out before the dispatch goroutine leaves.
	waitFor(t, "the object is idle", func() bool {
		o.mailbox.mu.Lock()
		defer o.mailbox.mu.Unlock()
		return o.mailbox.running == 0
	})

	res, err := c.Call(l, "OnCallerStack")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("OnCallerStack: %v %v", res, err)
	}
	if !resultBool(res, 0) {
		t.Error("a waiting Call to an idle object was not served on the caller's goroutine")
	}
}

// TestForwardedFrameServedOffGateLock: a tombstone forwards under its
// node's gate lock, so the frame it forwards loses its wait mark and the
// new host hands it to a dispatch goroutine. Its method calls an object
// on the source node, where the tombstone's gate is still up: the call
// completes, and is itself served on the method's goroutine. Were the
// forwarded frame served under the lock, that call would wait for it
// forever.
func TestForwardedFrameServedOffGateLock(t *testing.T) {
	f := transport.NewFabric(nil)
	t.Cleanup(func() { f.Close() })
	var nodes []*Node
	hung := false
	defer func() {
		if !hung { // closing src would wait for the lock a hung call holds
			for _, n := range nodes {
				n.Close()
			}
		}
	}()
	for _, name := range []string{"src", "dst", "cli"} {
		n, err := NewNode(f, nil, name)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	src, dst, cli := nodes[0], nodes[1], nodes[2]
	moved, z := loid.NewNoKey(506, 1), loid.NewNoKey(506, 2)
	if _, err := src.Spawn(z, &Behavior{
		Iface: idl.NewInterface("Z", idl.MethodSig{Name: "OnCallerStack"}),
		Handlers: map[string]Handler{
			"OnCallerStack": onCallerStack,
		},
	}); err != nil {
		t.Fatal(err)
	}
	relay := &Behavior{
		Iface: idl.NewInterface("Relay", idl.MethodSig{Name: "Relay"}),
		Handlers: map[string]Handler{
			"Relay": func(inv *Invocation) ([][]byte, error) {
				underGate := onStack("rt.(*Node).handleGated")
				res, err := inv.Obj.Caller().CallAddrCtx(inv.Ctx(), src.Address(), z, "OnCallerStack")
				if err != nil {
					return nil, err
				}
				if err := res.Err(); err != nil {
					return nil, err
				}
				return [][]byte{wire.Bool(underGate), res.Results[0]}, nil
			},
		},
	}
	if _, err := src.Spawn(moved, relay); err != nil {
		t.Fatal(err)
	}
	// Migrate moved from src to dst: park, start the new incarnation,
	// turn the gate into a tombstone, stop the old one.
	if err := src.Park(moved, loid.Nil); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Spawn(moved, relay); err != nil {
		t.Fatal(err)
	}
	src.ForwardParked(moved, dst.Element())
	src.Kill(moved)

	c := clientOn(cli, clientLOID)
	c.AddBinding(binding.Forever(moved, src.Address()))
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Call(moved, "Relay")
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(10 * time.Second):
		hung = true
		t.Fatal("a call through the tombstone never returned: its method ran under the source node's gate lock")
	}
	if out.err != nil || out.res.Code != wire.OK {
		t.Fatalf("Relay: %v %v", out.res, out.err)
	}
	if resultBool(out.res, 0) {
		t.Error("the forwarded frame was served on the forwarding goroutine")
	}
	if !resultBool(out.res, 1) {
		t.Error("the relayed call was not served on the relaying method's goroutine")
	}
}
