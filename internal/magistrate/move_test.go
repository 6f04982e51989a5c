package magistrate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/rt"
)

// segmentFixture is newFixture's jurisdiction on a segment store in a
// temp dir, whose group commits reg counts.
func segmentFixture(t *testing.T, nHosts int) (*fixture, *metrics.Registry) {
	t.Helper()
	fx := newFixture(t, nHosts)
	reg := metrics.NewRegistry()
	st, err := persist.NewSegmentStore(t.TempDir(), persist.SegmentOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	fx.mag.store = st
	return fx, reg
}

// residentsOn registers ls, activates each on host i and counts the
// k-th of them up to k+1, so a lost or swapped state shows.
func residentsOn(t *testing.T, fx *fixture, i int, ls []loid.LOID) {
	t.Helper()
	for k, l := range ls {
		if _, err := Register.Call(context.Background(), fx.client.Ref, l, "counter", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.client.Activate(l, fx.hostLs[i]); err != nil {
			t.Fatal(err)
		}
		for range k + 1 {
			inc(t, fx, l)
		}
	}
}

// notices stands in for a class object: it counts the NotifyAddress
// calls it serves and the bindings they carry.
type notices struct {
	mu             sync.Mutex
	calls, objects int
}

// classStub spawns a notices as the class object cl and binds it in the
// Magistrate's cache.
func classStub(t *testing.T, fx *fixture, cl loid.LOID) *notices {
	t.Helper()
	node, err := rt.NewNode(fx.fabric, nil, "class")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	n := &notices{}
	srv := rt.NewServer("ClassStub", rt.Serve1(NotifyAddress, func(n *notices, _ context.Context, bs []binding.Binding) (rt.Void, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.calls++
		n.objects += len(bs)
		return rt.Void{}, nil
	}))
	if _, err := node.Spawn(cl, srv.Impl(n, nil, nil)); err != nil {
		t.Fatal(err)
	}
	fx.mag.obj.Caller().AddBinding(binding.Forever(cl, node.Address()))
	return n
}

// TestMoveResidents: MoveResidents takes a set of residents from host A
// to host B in one move. A's Host Object serves two requests (one
// DrainObjects, one EvictObjects), B one StartObjects call and their
// class one NotifyAddress, and the store commits as often, for a set of
// 16 as for a set of one; every
// count survives, and each object runs on exactly one host and sees the
// phase hooks in protocol order, as a MigrateObject's set of one does.
// With n below the residents, exactly n move, the first in (ClassID,
// ClassSpecific) order; a claimed record is skipped, and a resident the
// filter refuses on B is never drained.
func TestMoveResidents(t *testing.T) {
	commits := map[int]uint64{}
	for _, n := range []int{1, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			fx, reg := segmentFixture(t, 2)
			ls := make([]loid.LOID, n)
			for k := range ls {
				ls[k] = loid.NewNoKey(256, uint64(k+1))
			}
			residentsOn(t, fx, 0, ls)
			news := classStub(t, fx, ls[0].ClassLOID())
			phases := map[loid.LOID][]string{}
			fx.mag.SetMigrateHook(func(phase string, l, _, _ loid.LOID) { phases[l] = append(phases[l], phase) })
			// A's Host Object counts the requests it serves; the
			// residents' own SaveState dispatches are not among them.
			srcHost, _ := fx.hosts[0].Node().Lookup(fx.hostLs[0])
			asked := srcHost.Mutations()
			served := fx.hosts[1].Node().Served()
			before := reg.CounterValue("persist/group_commit")
			moved, err := MoveResidents.Call(context.Background(), fx.client.Ref, fx.hostLs[0], fx.hostLs[1], uint64(n))
			if err != nil || moved != uint64(n) {
				t.Fatalf("MoveResidents = %d, %v; want %d", moved, err, n)
			}
			commits[n] = reg.CounterValue("persist/group_commit") - before
			if got := srcHost.Mutations() - asked; got != 2 {
				t.Errorf("A's Host Object served %d requests for a set of %d, want one DrainObjects and one EvictObjects", got, n)
			}
			if got := fx.hosts[1].Node().Served() - served; got != 1 {
				t.Errorf("B served %d requests for a set of %d, want one StartObjects", got, n)
			}
			news.mu.Lock()
			if news.calls != 1 || news.objects != n {
				t.Errorf("the class served %d NotifyAddress carrying %d objects, want 1 carrying %d", news.calls, news.objects, n)
			}
			news.mu.Unlock()
			checkStarted(t, fx, ls, fx.hostLs[1])
			for k, l := range ls {
				if got := inc(t, fx, l); got != uint64(k+2) {
					t.Errorf("%v counts %d after the move, want %d", l, got, k+2)
				}
			}
			// Each object sees the phases in order, as does a set of one
			// (MigrateObject).
			want := []string{"prepared", "shipped", "republished", "committed"}
			for _, l := range ls {
				if !slices.Equal(phases[l], want) {
					t.Errorf("%v saw phases %v, want %v", l, phases[l], want)
				}
			}
			clear(phases)
			if _, err := MigrateObject.Call(context.Background(), fx.client.Ref, ls[0], fx.hostLs[0]); err != nil {
				t.Fatal(err)
			}
			if len(phases) != 1 || !slices.Equal(phases[ls[0]], want) {
				t.Errorf("MigrateObject of %v: phases %v, want %v", ls[0], phases, want)
			}
		})
	}
	t.Logf("group commits per move: %v", commits)
	if commits[1] != commits[16] {
		t.Errorf("a move commits %d times for one object and %d for 16", commits[1], commits[16])
	}
	t.Run("picks", testMovePicks)
	t.Run("failures", testMoveFailures)
	t.Run("source-lost", func(t *testing.T) { testMoveLost(t, "prepared", 0, true) })
	t.Run("destination-lost", func(t *testing.T) { testMoveLost(t, "republished", 1, false) })
}

// testMoveLost: 16 checkpointed residents move from host 0 to host 1,
// and host dies (0 the source, 1 the destination) fails at the move's
// first phase boundary named phase, the store refusing the drained
// states if refuse is set. The move answers 0 moved and an error, and
// counts no mig/success: none of the 16 ends where it was sent. The
// objects lost with the host come back in one recovery round, as after
// a HostFailed of the same residents: mag/bulk_adoptions rises by one,
// the survivors serve one StartObjects between them, and each object
// runs once on a survivor with its count.
func testMoveLost(t *testing.T, phase string, dies int, refuse bool) {
	fx := newFixture(t, 3)
	ls := startCounters(t, fx, 0, 16)
	store := &failingPut{Store: fx.store}
	fx.mag.store = store
	// The survivors' Host Objects count the requests they serve; the
	// source's DrainObjects and EvictObjects are among them if it lives.
	var survivors []*rt.Object
	exits := uint64(0)
	for i, h := range fx.hosts {
		if i != dies {
			o, _ := h.Node().Lookup(fx.hostLs[i])
			survivors = append(survivors, o)
		}
	}
	if dies != 0 {
		exits = 2
	}
	served := func() (n uint64) {
		for _, o := range survivors {
			n += o.Mutations()
		}
		return n
	}
	asked, adoptions := served(), fx.reg.CounterValue("mag/bulk_adoptions")
	var once sync.Once
	fx.mag.SetMigrateHook(func(p string, _, _, _ loid.LOID) {
		if p == phase {
			once.Do(func() {
				fx.hosts[dies].CrashResidents()
				fx.mag.HostFailed(fx.hostLs[dies])
				store.armed.Store(refuse)
			})
		}
	})
	successes := fx.reg.CounterValue("mig/success")
	if moved, err := MoveResidents.Call(context.Background(), fx.client.Ref, fx.hostLs[0], fx.hostLs[1], 16); moved != 0 || err == nil {
		t.Errorf("MoveResidents = %d, %v; want 0 moved and an error", moved, err)
	}
	if got := fx.reg.CounterValue("mig/success") - successes; got != 0 {
		t.Errorf("mig/success rose by %d, want 0", got)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		settled := fx.reg.CounterValue("mag/bulk_adoptions") > adoptions
		fx.mag.mu.Lock()
		for _, l := range ls {
			rec := fx.mag.table[l.Ident()]
			settled = settled && rec.active && !rec.busy
		}
		fx.mag.mu.Unlock()
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the lost objects never came back")
		}
	}
	if got := fx.reg.CounterValue("mag/bulk_adoptions") - adoptions; got != 1 {
		t.Errorf("mag/bulk_adoptions rose by %d, want one recovery round", got)
	}
	if got := served() - asked - exits; got != 1 {
		t.Errorf("the survivors served %d StartObjects, want 1", got)
	}
	checkRecovered(t, fx, ls, fx.hostLs[dies])
	for k, l := range ls {
		if got := inc(t, fx, l); got != uint64(k+2) {
			t.Errorf("%v counts %d after the move, want %d", l, got, k+2)
		}
	}
}

// testMoveFailures: a resident whose drain fails stays where it ran and
// the rest of the set moves; a store that refuses the set's states
// sends every drained resident back to its source. No count is lost.
func testMoveFailures(t *testing.T) {
	fx := newFixture(t, 2)
	store := &failingPut{Store: fx.store}
	fx.mag.store = store
	fx.impls.MustRegister("nosave", func() rt.Impl {
		impl := counterFactory().(*rt.Behavior)
		impl.Save = func() ([]byte, error) { return nil, errors.New("cannot save") }
		return impl
	})
	ls := []loid.LOID{loid.NewNoKey(256, 1), loid.NewNoKey(256, 2), loid.NewNoKey(256, 3)}
	residentsOn(t, fx, 0, ls[:1])
	if _, err := Register.Call(context.Background(), fx.client.Ref, ls[1], "nosave", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.client.Activate(ls[1], fx.hostLs[0]); err != nil {
		t.Fatal(err)
	}
	inc(t, fx, ls[1])
	residentsOn(t, fx, 0, ls[2:])

	if _, err := MoveResidents.Call(context.Background(), fx.client.Ref, fx.hostLs[0], fx.hostLs[1], 3); err == nil {
		t.Fatal("MoveResidents succeeded with a drain failing")
	}
	checkStarted(t, fx, ls[1:2], fx.hostLs[0])
	checkStarted(t, fx, []loid.LOID{ls[0], ls[2]}, fx.hostLs[1])

	store.armed.Store(true)
	if _, err := MoveResidents.Call(context.Background(), fx.client.Ref, fx.hostLs[1], fx.hostLs[0], 2); err == nil {
		t.Fatal("MoveResidents succeeded with the store refusing its states")
	}
	checkStarted(t, fx, []loid.LOID{ls[0], ls[2]}, fx.hostLs[1])
	for _, l := range ls {
		if got := inc(t, fx, l); got != 2 {
			t.Errorf("%v counts %d after the failed moves, want 2", l, got)
		}
	}
	w := &walker{t: t, fx: fx, op: "move failures"}
	w.check("done")
	w.checkSettled()
}

func testMovePicks(t *testing.T) {
	fx := newFixture(t, 2)
	ls := []loid.LOID{
		loid.NewNoKey(257, 1), loid.NewNoKey(256, 9), loid.NewNoKey(256, 2),
		loid.NewNoKey(258, 1), loid.NewNoKey(256, 5), loid.NewNoKey(257, 3),
	}
	residentsOn(t, fx, 0, ls)
	claimed, refused := loid.NewNoKey(256, 2), loid.NewNoKey(256, 5)
	fx.mag.SetFilter(func(l loid.LOID, _ string, on loid.LOID) error {
		if l.SameObject(refused) && on.SameObject(fx.hostLs[1]) {
			return errors.New("not on B")
		}
		return nil
	})
	var drained []loid.LOID
	fx.mag.SetMigrateHook(func(phase string, l, _, _ loid.LOID) {
		if phase == "prepared" {
			drained = append(drained, l)
		}
	})
	fx.mag.mu.Lock()
	rec := fx.mag.table[claimed.Ident()]
	fx.mag.claimLocked(rec)
	fx.mag.mu.Unlock()

	moved, err := MoveResidents.Call(context.Background(), fx.client.Ref, fx.hostLs[0], fx.hostLs[1], 2)
	if err != nil || moved != 2 {
		t.Fatalf("MoveResidents = %d, %v; want 2", moved, err)
	}
	// In order: 256.2 (claimed), 256.5 (refused), 256.9, 257.1, 257.3, 258.1.
	want := []loid.LOID{loid.NewNoKey(256, 9), loid.NewNoKey(257, 1)}
	if !slices.EqualFunc(drained, want, loid.LOID.SameObject) {
		t.Errorf("drained %v, want %v", drained, want)
	}
	checkStarted(t, fx, want, fx.hostLs[1])
	fx.mag.mu.Lock()
	fx.mag.releaseLocked(rec)
	fx.mag.mu.Unlock()
	stay := []loid.LOID{claimed, refused, loid.NewNoKey(257, 3), loid.NewNoKey(258, 1)}
	checkStarted(t, fx, stay, fx.hostLs[0])

	// Nothing qualifies: the filter refuses everything on B, and A is
	// the source. Neither call drains anything.
	fx.mag.SetFilter(func(loid.LOID, string, loid.LOID) error { return errors.New("no") })
	for _, to := range fx.hostLs {
		if moved, err := MoveResidents.Call(context.Background(), fx.client.Ref, fx.hostLs[0], to, 8); err != nil || moved != 0 {
			t.Errorf("MoveResidents to %v with nothing to take = %d, %v", to, moved, err)
		}
	}
	if len(drained) != 2 {
		t.Errorf("drained %v, want only the first move's two", drained)
	}
}
