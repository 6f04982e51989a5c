package magistrate

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

// quarantined is a Store whose record at bad has rotted: Get reports it
// ErrCorrupt, and the bytes are gone from the store beneath, as a
// quarantine leaves them.
type quarantined struct {
	persist.Store
	bad persist.PersistentAddress
}

func (q quarantined) Get(a persist.PersistentAddress) (persist.OPR, error) {
	if a == q.bad {
		return persist.OPR{}, fmt.Errorf("%w: %s", persist.ErrCorrupt, a)
	}
	return q.Store.Get(a)
}

// addBareHost joins a host whose implementation registry is empty: it
// refuses every object the fixture makes.
func addBareHost(t *testing.T, fx *fixture, id uint64) {
	t.Helper()
	hn, err := rt.NewNode(fx.fabric, nil, "host")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hn.Close() })
	hl := loid.NewNoKey(loid.ClassIDLegionHost, id)
	h := host.New(hl, hn, implreg.NewRegistry(), nil)
	if _, err := hn.Spawn(hl, h); err != nil {
		t.Fatal(err)
	}
	if _, err := AddHost.Call(context.Background(), fx.client.Ref, hl, h.Address()); err != nil {
		t.Fatal(err)
	}
}

// startCounters registers n counters, runs them all on host i, bumps
// object k to k+1 and checkpoints them there.
func startCounters(t *testing.T, fx *fixture, i, n int) []loid.LOID {
	t.Helper()
	ls := make([]loid.LOID, n)
	for k := range ls {
		ls[k] = loid.NewNoKey(256, uint64(k+1))
		if _, err := Register.Call(context.Background(), fx.client.Ref, ls[k], "counter", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.client.Activate(ls[k], fx.hostLs[i]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= k; j++ {
			inc(t, fx, ls[k])
		}
	}
	h := fx.hosts[i]
	h.StartCheckpointer(fx.magL, mustAddr(t, fx), time.Hour)
	defer h.StopCheckpointer()
	if saved, err := h.CheckpointNow(); err != nil || saved != n {
		t.Fatalf("checkpoint: %d saved, %v; want %d", saved, err, n)
	}
	return ls
}

// TestCheckpointRoundCommitsTwice: a checkpoint round costs the segment
// store two group commits however many objects it carries, one for the
// new checkpoints and one for the tombstones of those they replace.
func TestCheckpointRoundCommitsTwice(t *testing.T) {
	fx := newFixture(t, 1)
	reg := metrics.NewRegistry()
	st, err := persist.NewSegmentStore(t.TempDir(), persist.SegmentOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	fx.mag.store = st
	const n = 64
	ls := make([]loid.LOID, n)
	for k := range ls {
		ls[k] = loid.NewNoKey(256, uint64(k+1))
		if _, err := Register.Call(context.Background(), fx.client.Ref, ls[k], "counter", nil); err != nil {
			t.Fatal(err)
		}
		inc(t, fx, ls[k])
	}
	h := fx.hosts[0]
	h.StartCheckpointer(fx.magL, mustAddr(t, fx), time.Hour)
	defer h.StopCheckpointer()
	for round := range 2 {
		for _, l := range ls {
			inc(t, fx, l)
		}
		before := reg.CounterValue("persist/group_commit")
		if saved, err := h.CheckpointNow(); err != nil || saved != n {
			t.Fatalf("round %d: %d saved, %v; want %d", round+1, saved, err, n)
		}
		if got := reg.CounterValue("persist/group_commit") - before; got != 2 {
			t.Errorf("round %d of %d objects: %d group commits, want 2", round+1, n, got)
		}
		if recs := st.Stats().Records; recs != n {
			t.Errorf("round %d: the store holds %d OPRs, want one per object (%d)", round+1, recs, n)
		}
	}
}

// inc calls l's Inc where the Magistrate says it runs.
func inc(t *testing.T, fx *fixture, l loid.LOID) uint64 {
	t.Helper()
	b, err := fx.client.Activate(l, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(b)
	res, err := fx.caller.Call(l, "Inc")
	if err != nil {
		t.Fatalf("Inc %v: %v", l, err)
	}
	raw, _ := res.Result(0)
	v, _ := wire.AsUint64(raw)
	return v
}

// crash fails host i and waits, on the Magistrate's own signal that a
// claim settled, until every lost object runs again with nothing in
// flight.
func crash(t *testing.T, fx *fixture, i int) []loid.LOID {
	t.Helper()
	fx.hosts[i].CrashResidents()
	lost := fx.mag.HostFailed(fx.hostLs[i])
	m := fx.mag
	expired := false
	watchdog := time.AfterFunc(10*time.Second, func() {
		m.mu.Lock()
		expired = true
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer watchdog.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		pending := 0
		for _, l := range lost {
			if rec, ok := m.table[l.Ident()]; ok && (!rec.active || rec.busy) {
				pending++
			}
		}
		if pending == 0 {
			return lost
		}
		if expired {
			t.Fatalf("%d of %d lost objects never came back", pending, len(lost))
		}
		m.cond.Wait()
	}
}

// checkRecovered holds each object to one incarnation, on a host other
// than avoid, and the resident counts to the table.
func checkRecovered(t *testing.T, fx *fixture, ls []loid.LOID, avoid loid.LOID) {
	t.Helper()
	hostOf := make(map[loid.LOID]loid.LOID)
	fx.mag.mu.Lock()
	for _, l := range ls {
		hostOf[l] = fx.mag.table[l.Ident()].host
	}
	fx.mag.mu.Unlock()
	for _, l := range ls {
		if hostOf[l].SameObject(avoid) {
			t.Errorf("%v came back on %v", l, avoid)
		}
		if n := incarnations(fx, l); n != 1 {
			t.Errorf("%v: %d incarnations, want 1", l, n)
		}
	}
	if err := fx.mag.CheckResidentCounts(); err != nil {
		t.Error(err)
	}
}

// TestHostFailedRecovery pins what HostFailed brings back, whatever the
// size of the lost set and whatever goes wrong on the way: every object
// once, with its checkpointed state, or blank where that state rotted.
func TestHostFailedRecovery(t *testing.T) {
	t.Run("one-resident", func(t *testing.T) {
		fx := newFixture(t, 2)
		ls := startCounters(t, fx, 0, 1)
		if lost := crash(t, fx, 0); len(lost) != 1 {
			t.Fatalf("lost %v, want one object", lost)
		}
		checkRecovered(t, fx, ls, fx.hostLs[0])
		if v := inc(t, fx, ls[0]); v != 2 {
			t.Errorf("counter = %d, want 2", v)
		}
	})

	t.Run("corrupt-opr", func(t *testing.T) {
		fx := newFixture(t, 2)
		ls := startCounters(t, fx, 0, 4)
		const bad = 2
		fx.mag.mu.Lock()
		addr := fx.mag.table[ls[bad].Ident()].filed
		fx.mag.mu.Unlock()
		if err := fx.store.Delete(addr); err != nil {
			t.Fatal(err)
		}
		fx.mag.store = quarantined{Store: fx.store, bad: addr}
		crash(t, fx, 0)
		checkRecovered(t, fx, ls, fx.hostLs[0])
		for k, l := range ls {
			want := uint64(k + 2)
			if k == bad {
				want = 1 // restarted blank
			}
			if v := inc(t, fx, l); v != want {
				t.Errorf("object %d: counter = %d, want %d", k, v, want)
			}
		}
		if n := fx.reg.CounterValue("mag/opr_corrupt"); n != 1 {
			t.Errorf("mag/opr_corrupt = %d, want 1", n)
		}
	})

	t.Run("impl-missing", func(t *testing.T) {
		fx := newFixture(t, 2)
		ls := startCounters(t, fx, 0, 3)
		// One resident on the other survivor makes the bare host, empty,
		// the placement pick.
		other := loid.NewNoKey(256, 99)
		if _, err := Register.Call(context.Background(), fx.client.Ref, other, "counter", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.client.Activate(other, fx.hostLs[1]); err != nil {
			t.Fatal(err)
		}
		addBareHost(t, fx, 3)
		crash(t, fx, 0)
		checkRecovered(t, fx, ls, fx.hostLs[0])
		if n := fx.reg.CounterValue("mag/bulk_adopt_failed"); n == 0 {
			t.Error("the bare host was never asked to adopt")
		}
		for k, l := range ls {
			fx.mag.mu.Lock()
			h := fx.mag.table[l.Ident()].host
			fx.mag.mu.Unlock()
			if !h.SameObject(fx.hostLs[1]) {
				t.Errorf("object %d on %v, want %v", k, h, fx.hostLs[1])
			}
			if v := inc(t, fx, l); v != uint64(k+2) {
				t.Errorf("object %d: counter = %d, want %d", k, v, k+2)
			}
		}
	})
}
