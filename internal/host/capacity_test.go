package host

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
)

// gatedHost is a host served concurrently, as core spawns it, whose one
// implementation "gated" blocks in its factory until open is closed:
// every start it admits waits there, inside spawnResident.
type gatedHost struct {
	h       *Host
	ref     rt.Ref
	entered atomic.Int32 // factory entries
	open    chan struct{}
}

func newGatedHost(t *testing.T, fx *hostFixture, limit uint64) *gatedHost {
	t.Helper()
	g := &gatedHost{open: make(chan struct{})}
	impls := implreg.NewRegistry()
	impls.MustRegister("gated", func() rt.Impl {
		g.entered.Add(1)
		<-g.open
		return counterFactory()
	})
	node, err := rt.NewNode(fx.fabric, nil, "gated-host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	hl := loid.NewNoKey(loid.ClassIDLegionHost, 2)
	g.h = New(hl, node, impls, nil)
	if _, err := node.Spawn(hl, g.h, rt.WithConcurrency(ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(binding.Forever(hl, node.Address()))
	g.ref = fx.caller.To(hl)
	if _, err := SetCPULoad.Call(context.Background(), g.ref, limit); err != nil {
		t.Fatal(err)
	}
	return g
}

// race issues calls at once and waits until each has either been
// refused or got into the factory (an admitted set blocks on its first
// object: one entry a call), then opens the gate. It returns how many
// calls succeeded.
func (g *gatedHost) race(t *testing.T, calls []func() error) int {
	t.Helper()
	errs := make(chan error, len(calls))
	for _, call := range calls {
		go func() { errs <- call() }()
	}
	refused, answered := 0, 0
	for deadline := time.Now().Add(5 * time.Second); refused+int(g.entered.Load()) < len(calls); {
		select {
		case err := <-errs:
			answered++
			if err == nil {
				t.Fatal("a start succeeded with the factory gate shut")
			}
			refused++
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d refused, %d in the factory, of %d calls", refused, g.entered.Load(), len(calls))
		}
	}
	close(g.open)
	ok := 0
	for ; answered < len(calls); answered++ {
		if <-errs == nil {
			ok++
		}
	}
	return ok
}

// TestConcurrentStartsRespectCapacity: starts that race are admitted
// against each other, not each against the residents alone. Capacity
// is reserved before an object spawns, so the starts a host admits
// never outnumber its limit, however many arrive at once.
func TestConcurrentStartsRespectCapacity(t *testing.T) {
	ctx := func() context.Context {
		c, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t.Cleanup(cancel)
		return c
	}
	t.Run("start", func(t *testing.T) {
		fx := newHostFixture(t)
		g := newGatedHost(t, fx, 2)
		var calls []func() error
		for i := range 8 {
			l := loid.NewNoKey(256, uint64(i+1))
			calls = append(calls, func() error {
				_, err := StartObjects.Call(ctx(), g.ref, []persist.OPR{{LOID: l, Impl: "gated"}})
				return err
			})
		}
		ok := g.race(t, calls)
		if ok != 2 || g.h.Running() != 2 {
			t.Errorf("limit 2, 8 concurrent starts: %d succeeded, %d running", ok, g.h.Running())
		}
	})

	t.Run("adopt", func(t *testing.T) {
		fx := newHostFixture(t)
		g := newGatedHost(t, fx, 3)
		var calls []func() error
		for i := range 2 {
			set := []persist.OPR{
				{LOID: loid.NewNoKey(256, uint64(2*i+1)), Impl: "gated"},
				{LOID: loid.NewNoKey(256, uint64(2*i+2)), Impl: "gated"},
			}
			calls = append(calls, func() error {
				_, err := StartObjects.Call(ctx(), g.ref, set)
				return err
			})
		}
		ok := g.race(t, calls)
		if ok != 1 || g.h.Running() != 2 {
			t.Errorf("limit 3, two concurrent sets of 2: %d admitted, %d running", ok, g.h.Running())
		}
	})
}
