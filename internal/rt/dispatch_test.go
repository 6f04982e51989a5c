package rt

import (
	"context"
	"errors"
	"runtime"
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
