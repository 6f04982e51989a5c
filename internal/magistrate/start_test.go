package magistrate

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/wire"
)

// register files an inert counter for each of ids.
func register(t *testing.T, fx *fixture, ids ...uint64) []loid.LOID {
	t.Helper()
	ls := make([]loid.LOID, len(ids))
	for i, id := range ids {
		ls[i] = loid.NewNoKey(256, id)
		if _, err := Register.Call(context.Background(), fx.client.Ref, ls[i], "counter", nil); err != nil {
			t.Fatal(err)
		}
	}
	return ls
}

// incarnations counts the fixture's hosts that run l.
func incarnations(fx *fixture, l loid.LOID) int {
	n := 0
	for _, h := range fx.hosts {
		if _, ok := h.Node().Lookup(l); ok {
			n++
		}
	}
	return n
}

// checkStarted holds each of ls to one incarnation, on want when want
// is not nil, and the resident counts to the table.
func checkStarted(t *testing.T, fx *fixture, ls []loid.LOID, want loid.LOID) {
	t.Helper()
	for _, l := range ls {
		fx.mag.mu.Lock()
		rec := fx.mag.table[l.Ident()]
		active, on := rec.active, rec.host
		fx.mag.mu.Unlock()
		if !active {
			t.Errorf("%v is inert", l)
		} else if !want.IsNil() && !on.SameObject(want) {
			t.Errorf("%v runs on %v, want %v", l, on, want)
		}
		if n := incarnations(fx, l); n != 1 {
			t.Errorf("%v: %d incarnations, want 1", l, n)
		}
	}
	if err := fx.mag.CheckResidentCounts(); err != nil {
		t.Error(err)
	}
}

// checkInert holds each of ls to an inert, unclaimed record that no
// host runs, and the resident counts to the table.
func checkInert(t *testing.T, fx *fixture, ls []loid.LOID) {
	t.Helper()
	for _, l := range ls {
		fx.mag.mu.Lock()
		rec := fx.mag.table[l.Ident()]
		active, busy := rec.active, rec.busy
		fx.mag.mu.Unlock()
		if active || busy {
			t.Errorf("%v: active %v, claimed %v; want inert and unclaimed", l, active, busy)
		}
		if n := incarnations(fx, l); n != 0 {
			t.Errorf("%v: %d incarnations, want none", l, n)
		}
	}
	if err := fx.mag.CheckResidentCounts(); err != nil {
		t.Error(err)
	}
}

// silence drops every frame between the Magistrate and host i; host i
// stays in the pool.
func silence(t *testing.T, fx *fixture, i int) {
	t.Helper()
	a, ok1 := oa.MemID(fx.mag.obj.Node().Element())
	b, ok2 := oa.MemID(fx.hosts[i].Node().Element())
	if !ok1 || !ok2 {
		t.Fatal("not a mem element")
	}
	fx.fabric.Block(a, b)
}

// shortCalls bounds each of the Magistrate's own calls, so a host that
// never answers costs the test little.
func shortCalls(fx *fixture) { fx.mag.obj.Caller().Timeout = 100 * time.Millisecond }

// TestStartRound pins the one start round Activate, Instantiate and
// HostFailed recovery share: each host is sent the part of the set the
// activation filter admits there; a host that answers with an error is
// passed over; a host that does not answer ends the round, because the
// set may still start there.
func TestStartRound(t *testing.T) {
	t.Run("per-host-filter", func(t *testing.T) {
		fx := newFixture(t, 2)
		refused := fx.hostLs[0]
		fx.mag.SetFilter(func(_ loid.LOID, _ string, on loid.LOID) error {
			if on.SameObject(refused) {
				return errors.New("not on this host")
			}
			return nil
		})
		ls := register(t, fx, 1, 2, 3, 4)
		for _, l := range ls {
			if _, err := fx.client.Activate(l, loid.Nil); err != nil {
				t.Fatalf("Activate %v: %v", l, err)
			}
		}
		born := loid.NewNoKey(256, 5)
		if _, err := instantiateOne(fx, Instance{born, "counter", nil, loid.Nil}); err != nil {
			t.Fatalf("Instantiate: %v", err)
		}
		checkStarted(t, fx, append(ls, born), fx.hostLs[1])
	})

	t.Run("refused-start", func(t *testing.T) {
		fx := newFixture(t, 2)
		ls := register(t, fx, 1, 2, 3, 4)
		// One resident on host 0 and two on host 1 make host 0 the pick;
		// a limit of one puts it at capacity.
		for i, on := range []int{0, 1, 1} {
			if _, err := fx.client.Activate(ls[i], fx.hostLs[on]); err != nil {
				t.Fatal(err)
			}
		}
		fx.caller.AddBinding(binding.Forever(fx.hostLs[0], fx.hosts[0].Address()))
		if _, err := host.SetCPULoad.Call(context.Background(), fx.caller.To(fx.hostLs[0]), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.client.Activate(ls[3], loid.Nil); err != nil {
			t.Fatalf("Activate with the pick at capacity: %v", err)
		}
		checkStarted(t, fx, ls[3:], fx.hostLs[1])
		checkStarted(t, fx, ls[:3], loid.Nil)
	})

	t.Run("unanswered-activate", func(t *testing.T) {
		fx := newFixture(t, 2)
		shortCalls(fx)
		ls := register(t, fx, 1)
		silence(t, fx, 0) // the first pick of an empty pool
		if _, err := fx.client.Activate(ls[0], loid.Nil); err == nil {
			t.Fatal("Activate succeeded with the pick silent")
		}
		checkInert(t, fx, ls)
		fx.mag.HostFailed(fx.hostLs[0])
		if _, err := fx.client.Activate(ls[0], loid.Nil); err != nil {
			t.Fatalf("Activate after HostFailed: %v", err)
		}
		checkStarted(t, fx, ls, fx.hostLs[1])
	})

	t.Run("unanswered-recovery", func(t *testing.T) {
		fx := newFixture(t, 3)
		shortCalls(fx)
		ls := startCounters(t, fx, 0, 3)
		// One resident on host 2 makes host 1 the recovery target.
		other := register(t, fx, 99)
		if _, err := fx.client.Activate(other[0], fx.hostLs[2]); err != nil {
			t.Fatal(err)
		}
		silence(t, fx, 1)
		fx.hosts[0].CrashResidents()
		lost := fx.mag.HostFailed(fx.hostLs[0])
		if len(lost) != len(ls) {
			t.Fatalf("lost %v, want %d objects", lost, len(ls))
		}
		waitRound(t, fx)
		checkInert(t, fx, ls)
		if n := fx.hosts[2].Running(); n != 1 {
			t.Errorf("host 2 runs %d objects, want only its own", n)
		}
		if n := fx.reg.CounterValue("mag/bulk_adopt_failed"); n != 1 {
			t.Errorf("mag/bulk_adopt_failed = %d, want 1", n)
		}
		// Released inert, each still starts from its checkpoint.
		fx.mag.HostFailed(fx.hostLs[1])
		for k, l := range ls {
			if v := inc(t, fx, l); v != uint64(k+2) {
				t.Errorf("object %d: counter = %d, want %d", k, v, k+2)
			}
		}
		checkStarted(t, fx, ls, fx.hostLs[2])
	})
}

// waitRound waits until a recovery round has made its one call and
// released its claims.
func waitRound(t *testing.T, fx *fixture) {
	t.Helper()
	m := fx.mag
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		called := fx.reg.CounterValue("mag/bulk_adopt_failed")+fx.reg.CounterValue("mag/bulk_adoptions") > 0
		busy := false
		m.mu.Lock()
		for _, rec := range m.table {
			busy = busy || rec.busy
		}
		m.mu.Unlock()
		if called && !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the recovery round never settled")
		}
	}
}

// TestInstantiateSetPlacesAsLone pins the planner: a set Instantiate
// puts each object where that many lone Instantiates, one after the
// other, would put it — with the activation filter turning the pick
// away, with hints, and with a host at its capacity limit refusing its
// share, whose objects then start one by one from their planned host.
// Nothing is started twice and nothing is left claimed or filed.
func TestInstantiateSetPlacesAsLone(t *testing.T) {
	oddOffHost0 := func(fx *fixture) {
		fx.mag.SetFilter(func(l loid.LOID, _ string, on loid.LOID) error {
			if l.ClassSpecific%2 == 1 && on.SameObject(fx.hostLs[0]) {
				return errors.New("odd objects are not run on host 0")
			}
			return nil
		})
	}
	limitHost0 := func(fx *fixture) {
		fx.caller.AddBinding(binding.Forever(fx.hostLs[0], fx.hosts[0].Address()))
		if _, err := host.SetCPULoad.Call(context.Background(), fx.caller.To(fx.hostLs[0]), 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		hosts   int
		n       int
		hinted  func(k int) int // host index to hint, -1 for none
		setup   func(fx *fixture)
		onHost0 int // objects host 0 ends up running
	}{
		{"spread", 3, 10, nil, nil, 3},
		{"filter-refuses-pick", 3, 10, nil, oddOffHost0, 3},
		{"hinted", 3, 9, func(k int) int { return k%4 - 1 }, nil, 3},
		// Host 0 is planned two of the four and refuses them as a
		// share; the first then starts there alone, the second moves on.
		{"refused-share", 2, 4, nil, limitHost0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			set := make([]Instance, c.n)
			for k := range set {
				set[k] = Instance{Object: loid.NewNoKey(256, uint64(k+1)), Impl: "counter"}
			}
			run := func(lone bool) (*fixture, []loid.LOID) {
				fx := newFixture(t, c.hosts)
				if c.setup != nil {
					c.setup(fx)
				}
				ins := slices.Clone(set)
				for k := range ins {
					if c.hinted != nil && c.hinted(k) >= 0 {
						ins[k].HostHint = fx.hostLs[c.hinted(k)]
					}
				}
				on := make([]loid.LOID, len(ins))
				if lone {
					for k, in := range ins {
						b, err := instantiateOne(fx, in)
						if err != nil {
							t.Fatalf("lone Instantiate %d: %v", k, err)
						}
						on[k] = hostAt(fx, b.Address)
					}
				} else {
					r, err := Instantiate.Call(context.Background(), fx.client.Ref, ins)
					if err != nil || r.Failure != "" {
						t.Fatalf("set Instantiate: %v %q", err, r.Failure)
					}
					for k, b := range r.Bindings {
						on[k] = hostAt(fx, b.Address)
					}
				}
				w := &walker{t: t, fx: fx}
				w.checkSettled()
				return fx, on
			}
			fx, got := run(false)
			_, want := run(true)
			for k := range set {
				if !got[k].SameObject(want[k]) {
					t.Errorf("object %d: set put it on %v, lone on %v", k, got[k], want[k])
				}
			}
			ls := make([]loid.LOID, len(set))
			for k, in := range set {
				ls[k] = in.Object
			}
			checkStarted(t, fx, ls, loid.Nil)
			if n := fx.hosts[0].Running(); n != c.onHost0 {
				t.Errorf("host 0 runs %d objects, want %d", n, c.onHost0)
			}
		})
	}
}

// hostAt names the fixture host whose node is at addr.
func hostAt(fx *fixture, addr oa.Address) loid.LOID {
	for i, h := range fx.hosts {
		if h.Address().Equal(addr) {
			return fx.hostLs[i]
		}
	}
	return loid.Nil
}

// hostIndex returns the index among the fixture's hosts of the host the
// Magistrate places l on, or -1 when it is inert.
func hostIndex(fx *fixture, l loid.LOID) int {
	fx.mag.mu.Lock()
	on := fx.mag.table[l.Ident()].host
	fx.mag.mu.Unlock()
	return slices.IndexFunc(fx.hostLs, on.SameObject)
}

// TestStartKeepsItsSource: the representation a start consumes stays on
// file as the new incarnation's checkpoint until a newer one replaces
// it. Each case crashes the object's host before any checkpoint round,
// and the object comes back with the state it started from, not blank:
// one filed by Register, one filed by Deactivate, one a recovery
// started from, and one a migration drained.
func TestStartKeepsItsSource(t *testing.T) {
	t.Run("register", func(t *testing.T) {
		fx := newFixture(t, 2)
		if _, err := Register.Call(context.Background(), fx.client.Ref, objL, "counter", wire.Uint64(41)); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.client.Activate(objL, fx.hostLs[0]); err != nil {
			t.Fatal(err)
		}
		crash(t, fx, 0)
		if v := inc(t, fx, objL); v != 42 {
			t.Errorf("Inc after the crash = %d, want 42", v)
		}
	})

	t.Run("deactivate", func(t *testing.T) {
		fx := newFixture(t, 2)
		register(t, fx, 1)
		for range 5 {
			inc(t, fx, objL)
		}
		if err := fx.client.Deactivate(objL); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.client.Activate(objL, fx.hostLs[0]); err != nil {
			t.Fatal(err)
		}
		crash(t, fx, 0)
		if v := inc(t, fx, objL); v != 6 {
			t.Errorf("Inc after the crash = %d, want 6", v)
		}
	})

	t.Run("recovery", func(t *testing.T) {
		fx := newFixture(t, 3)
		ls := startCounters(t, fx, 0, 1)
		crash(t, fx, 0)
		crash(t, fx, hostIndex(fx, ls[0]))
		if v := inc(t, fx, ls[0]); v != 2 {
			t.Errorf("Inc after two crashes = %d, want 2", v)
		}
		checkStarted(t, fx, ls, loid.Nil)
	})

	t.Run("migration", func(t *testing.T) {
		fx := newFixture(t, 3)
		register(t, fx, 1)
		if _, err := fx.client.Activate(objL, fx.hostLs[0]); err != nil {
			t.Fatal(err)
		}
		for range 3 {
			inc(t, fx, objL)
		}
		// A checkpoint the source sampled before the drain lands after
		// the drained state is filed: the commit keeps the drained one.
		fx.mag.SetMigrateHook(func(phase string, _, src, _ loid.LOID) {
			if phase == "shipped" {
				old := []persist.OPR{{LOID: objL, Impl: "counter", State: wire.Uint64(1)}}
				if _, err := fx.mag.checkpointBatch(context.Background(), src, old); err != nil {
					t.Error(err)
				}
			}
		})
		if err := fx.mag.MigrateObject(context.Background(), objL, fx.hostLs[1]); err != nil {
			t.Fatal(err)
		}
		crash(t, fx, 1)
		if v := inc(t, fx, objL); v != 4 {
			t.Errorf("Inc after the destination crashed = %d, want 4", v)
		}
	})
}

// TestStartOnDepartedHost: a start round commits only onto a host still
// in the pool. A host declared failed while its start is on the wire
// answers for objects the Magistrate no longer places there: they are
// reaped, and the round moves on as after a refusal.
func TestStartOnDepartedHost(t *testing.T) {
	t.Run("recovery", func(t *testing.T) {
		fx := newFixture(t, 3)
		ls := startCounters(t, fx, 0, 3)
		var once sync.Once
		fx.mag.SetAdoptHook(func(target loid.LOID) {
			once.Do(func() { fx.mag.HostFailed(target) })
		})
		crash(t, fx, 0)
		for deadline := time.Now().Add(10 * time.Second); fx.reg.CounterValue("mag/bulk_adoptions") == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the recovery round never ended")
			}
		}
		w := &walker{t: t, fx: fx, op: "start on a departed host"}
		in := w.pool()
		for _, l := range ls {
			if i := hostIndex(fx, l); !slices.Contains(in, i) {
				t.Errorf("%v runs on host %d, outside the pool %v", l, i, in)
			}
		}
		checkStarted(t, fx, ls, loid.Nil)
		for k, l := range ls {
			if v := inc(t, fx, l); v != uint64(k+2) {
				t.Errorf("object %d: counter = %d, want %d", k, v, k+2)
			}
		}
		if n := fx.reg.CounterValue("mag/bulk_adopt_failed"); n != 1 {
			t.Errorf("mag/bulk_adopt_failed = %d, want 1", n)
		}
		w.checkSettled()
	})

	t.Run("migration", func(t *testing.T) {
		fx := newFixture(t, 3)
		register(t, fx, 1)
		if _, err := fx.client.Activate(objL, fx.hostLs[0]); err != nil {
			t.Fatal(err)
		}
		inc(t, fx, objL)
		fx.mag.SetMigrateHook(func(phase string, _, _, dest loid.LOID) {
			if phase == "shipped" {
				fx.mag.HostFailed(dest)
			}
		})
		if err := fx.mag.MigrateObject(context.Background(), objL, fx.hostLs[1]); err == nil {
			t.Fatal("the migration succeeded onto a failed host")
		}
		checkStarted(t, fx, []loid.LOID{objL}, fx.hostLs[0])
		if v := inc(t, fx, objL); v != 2 {
			t.Errorf("Inc after the aborted migration = %d, want 2", v)
		}
		w := &walker{t: t, fx: fx, op: "migrate onto a departed host"}
		w.checkSettled()
	})
}
