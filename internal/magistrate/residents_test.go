package magistrate

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/loid"
	"repro/internal/oa"
)

// The Magistrate keeps a resident count per host (place/unplace) in
// place of a table walk per placement. These tests hold that to its
// two promises: the counts always equal a recount of the table, and a
// pick costs the same whatever the size of the jurisdiction.

// splitmix64 is the walk's op stream (Steele et al.), as in benchmark/.
type splitmix64 struct{ s uint64 }

func (g *splitmix64) next() uint64 {
	g.s += 0x9E3779B97F4A7C15
	z := g.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *splitmix64) intn(n int) int { return int(g.next() % uint64(n)) }

// walker drives one seeded walk over a fixture and checks the invariant
// after every step.
type walker struct {
	t    *testing.T
	fx   *fixture
	g    splitmix64
	objs []loid.LOID
	next uint64
	step int
	op   string
	// injected counts the HostFailed calls that landed on a migrating
	// record, by step name.
	injected map[string]int
}

func (w *walker) check(when string) {
	w.t.Helper()
	if err := w.fx.mag.CheckResidentCounts(); err != nil {
		w.t.Fatalf("step %d (%s, %s): %v", w.step, w.op, when, err)
	}
}

// pool returns the indexes of the fixture's hosts currently in m.hosts.
func (w *walker) pool() []int {
	m := w.fx.mag
	m.mu.Lock()
	defer m.mu.Unlock()
	var in []int
	for i, hl := range w.fx.hostLs {
		if m.hostKnownLocked(hl) {
			in = append(in, i)
		}
	}
	return in
}

// placed returns the objects that are active with nothing in flight,
// and where each runs.
func (w *walker) placed() (ls []loid.LOID, on []loid.LOID) {
	m := w.fx.mag
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, l := range w.objs {
		if rec, ok := m.table[l.ID()]; ok && rec.active && !rec.activating && !rec.migrating {
			ls, on = append(ls, l), append(on, rec.host)
		}
	}
	return ls, on
}

// settle waits for the background half of HostFailed (reactivation or
// bulk adoption): every listed object active again, nothing in flight.
func (w *walker) settle(ls []loid.LOID) {
	w.t.Helper()
	m := w.fx.mag
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		pending := 0
		for _, l := range ls {
			if rec, ok := m.table[l.ID()]; ok && (!rec.active || rec.activating || rec.migrating) {
				pending++
			}
		}
		m.mu.Unlock()
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("step %d (%s): %d objects never came back", w.step, w.op, pending)
		}
		time.Sleep(time.Millisecond)
	}
}

// failHost models a crash of host i seen by an ideal detector: its
// residents die without saving, the Magistrate is told.
func (w *walker) failHost(i int) []loid.LOID {
	w.fx.hosts[i].CrashResidents()
	return w.fx.mag.HostFailed(w.fx.hostLs[i])
}

func (w *walker) create() {
	w.next++
	l := loid.NewNoKey(256, w.next)
	if err := w.fx.client.Register(l, "counter", nil); err != nil {
		w.t.Fatalf("step %d: register: %v", w.step, err)
	}
	w.objs = append(w.objs, l)
}

// reset brings the jurisdiction back to full strength: every host in
// the pool, every object active.
func (w *walker) reset() {
	w.hostRecovered()
	for _, l := range w.objs {
		if _, err := w.fx.client.Activate(l, loid.Nil); err != nil {
			w.t.Fatalf("step %d: activate %v: %v", w.step, l, err)
		}
	}
}

func (w *walker) activate() {
	if len(w.objs) == 0 {
		return
	}
	l := w.objs[w.g.intn(len(w.objs))]
	hint := loid.Nil
	if in := w.pool(); w.g.intn(4) == 0 {
		hint = w.fx.hostLs[in[w.g.intn(len(in))]]
	}
	if _, err := w.fx.client.Activate(l, hint); err != nil {
		w.t.Fatalf("step %d: activate %v: %v", w.step, l, err)
	}
}

func (w *walker) deactivate() {
	if ls, _ := w.placed(); len(ls) > 0 {
		l := ls[w.g.intn(len(ls))]
		if err := w.fx.client.Deactivate(l); err != nil {
			w.t.Fatalf("step %d: deactivate %v: %v", w.step, l, err)
		}
	}
}

func (w *walker) remove() {
	if len(w.objs) == 0 {
		return
	}
	i := w.g.intn(len(w.objs))
	if err := w.fx.client.Delete(w.objs[i]); err != nil {
		w.t.Fatalf("step %d: delete %v: %v", w.step, w.objs[i], err)
	}
	w.objs = append(w.objs[:i], w.objs[i+1:]...)
}

// migrate moves a random placed object to another host of the pool. A
// non-empty crashAt injects a HostFailed for the named side at that
// phase boundary — the record is migrating, so HostFailed leaves it
// placed on a host that has left m.hosts — and cancel additionally
// cancels the driver's context there, forcing the abort path.
func (w *walker) migrate(crashAt, side string, cancel bool) {
	ls, on := w.placed()
	in := w.pool()
	if len(ls) == 0 || len(in) < 2 {
		return
	}
	k := w.g.intn(len(ls))
	l, src := ls[k], on[k]
	var dests []int
	for _, i := range in {
		if !w.fx.hostLs[i].SameObject(src) {
			dests = append(dests, i)
		}
	}
	if len(dests) == 0 {
		return
	}
	dest := w.fx.hostLs[dests[w.g.intn(len(dests))]]
	if crashAt != "" && len(in) < 3 {
		crashAt = "" // keep a survivor besides the other side
	}

	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if crashAt == "" && cancel {
		stop() // abort before the drain
	}
	var affected []loid.LOID
	w.fx.mag.SetMigrateHook(func(phase string, obj, s, d loid.LOID) {
		w.check("at " + phase)
		if phase != crashAt {
			return
		}
		victim := s
		if side == "dest" {
			victim = d
		}
		for i, hl := range w.fx.hostLs {
			if hl.SameObject(victim) {
				affected = w.failHost(i)
				w.injected[w.op]++
			}
		}
		w.check("HostFailed(" + side + ") at " + phase)
		if cancel {
			stop()
		}
	})
	err := w.fx.mag.MigrateObject(ctx, l, dest)
	w.fx.mag.SetMigrateHook(nil)
	if err != nil && crashAt == "" && !cancel {
		w.t.Fatalf("step %d: migrate %v: %v", w.step, l, err)
	}
	w.check("migration returned")
	w.settle(append(affected, l))
}

// hostFailed crashes the fullest host of the pool (bulk adoption needs
// two residents to ship), recovering with or without bulk adoption.
func (w *walker) hostFailed(bulk bool) {
	in := w.pool()
	if len(in) < 2 {
		return
	}
	m := w.fx.mag
	m.mu.Lock()
	victim := in[0]
	for _, i := range in[1:] {
		if m.residents[w.fx.hostLs[i].ID()] > m.residents[w.fx.hostLs[victim].ID()] {
			victim = i
		}
	}
	m.mu.Unlock()
	m.SetBulkAdoption(bulk)
	affected := w.failHost(victim)
	w.check("HostFailed returned")
	w.settle(affected)
}

// removeHost withdraws a host from the pool without a failure: its
// residents keep running there and stay counted there.
func (w *walker) removeHost() {
	if in := w.pool(); len(in) >= 2 {
		if err := w.fx.client.RemoveHost(w.fx.hostLs[in[w.g.intn(len(in))]]); err != nil {
			w.t.Fatalf("step %d: remove host: %v", w.step, err)
		}
	}
}

// hostRecovered re-admits every host that has left the pool (a no-op
// for one still in it).
func (w *walker) hostRecovered() {
	for i, hl := range w.fx.hostLs {
		w.fx.mag.HostRecovered(hl, w.fx.hosts[i].Address())
	}
}

// restore saves the Magistrate's state and restores it into the same
// Magistrate, as a process restart would: every running object is gone,
// every record comes back inert, and the hosts re-join.
func (w *walker) restore() {
	st, err := w.fx.mag.SaveState()
	if err != nil {
		w.t.Fatalf("step %d: save: %v", w.step, err)
	}
	for _, h := range w.fx.hosts {
		h.CrashResidents()
	}
	if err := w.fx.mag.RestoreState(st); err != nil {
		w.t.Fatalf("step %d: restore: %v", w.step, err)
	}
	w.check("restored")
	w.fx.mag.ForgetHosts()
	w.check("hosts forgotten")
	for i, h := range w.fx.hosts {
		if err := w.fx.client.AddHost(w.fx.hostLs[i], h.Address()); err != nil {
			w.t.Fatalf("step %d: re-add host: %v", w.step, err)
		}
	}
}

func TestResidentCountsMatchTable(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := &walker{t: t, fx: newFixture(t, 3), g: splitmix64{s: seed}, injected: map[string]int{}}
			steps := []struct {
				name string
				do   func()
			}{
				{"create", w.create}, {"create", w.create},
				{"activate", w.activate}, {"activate", w.activate}, {"activate", w.activate},
				{"deactivate", w.deactivate},
				{"delete", w.remove},
				{"migrate", func() { w.migrate("", "", false) }},
				{"migrate", func() { w.migrate("", "", false) }},
				{"migrate/abort", func() { w.migrate("", "", true) }},
				{"migrate/src-fails-prepared", func() { w.migrate("prepared", "src", false) }},
				{"migrate/src-fails-prepared-abort", func() { w.migrate("prepared", "src", true) }},
				{"migrate/dest-fails-shipped", func() { w.migrate("shipped", "dest", false) }},
				{"migrate/dest-fails-republished", func() { w.migrate("republished", "dest", false) }},
				{"host-failed/per-opr", func() { w.hostFailed(false) }},
				{"host-failed/bulk", func() { w.hostFailed(true) }},
				{"remove-host", w.removeHost},
				{"host-recovered", w.hostRecovered}, {"host-recovered", w.hostRecovered},
				{"host-recovered", w.hostRecovered}, {"host-recovered", w.hostRecovered},
				{"restore", w.restore},
			}
			// Every kind of step once from full strength, in a seeded
			// order; then the seeded walk proper, from wherever it leads.
			for i := 0; i < 12; i++ {
				w.create()
			}
			for _, i := range permutation(&w.g, len(steps)) {
				w.reset()
				w.check("reset")
				w.step, w.op = w.step+1, steps[i].name
				steps[i].do()
				w.check("done")
			}
			for i := 0; i < 150; i++ {
				s := steps[w.g.intn(len(steps))]
				w.step, w.op = w.step+1, s.name
				s.do()
				w.check("done")
			}
			// The walk must have gone down every settlement path.
			for _, c := range []string{"mig/success", "mig/aborts", "mag/reactivations", "mag/bulk_adoptions"} {
				if w.fx.reg.CounterValue(c) == 0 {
					t.Errorf("walk never exercised %s", c)
				}
			}
			if len(w.injected) != 4 {
				t.Errorf("HostFailed landed on a migrating record in %v, want all four injections", w.injected)
			}
		})
	}
}

func permutation(g *splitmix64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// populated builds an unspawned Magistrate whose table holds n active
// records spread over three hosts — enough for pickHostLocked, which
// touches neither the store nor the node.
func populated(n int) *Magistrate {
	m := New(loid.NewNoKey(loid.ClassIDMagistrate, 1), nil)
	for i := 0; i < 3; i++ {
		m.hosts = append(m.hosts, hostEntry{l: loid.NewNoKey(loid.ClassIDLegionHost, uint64(i+1))})
	}
	for i := 0; i < n; i++ {
		rec := &record{impl: "counter"}
		m.table[loid.NewNoKey(256, uint64(i+1))] = rec
		m.place(rec, m.hosts[i%3].l, oa.Address{})
	}
	return m
}

// TestPickHostAllocFree pins the cost model: a pick reads one kept
// count per host and allocates nothing, at any table size. (sched's
// test of the same name covers the Scheduling Agents' policies.)
func TestPickHostAllocFree(t *testing.T) {
	m := populated(4096)
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := m.pickHostLocked(loid.Nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pickHostLocked allocates %.1f/op over 4096 records, want 0", n)
	}
	// And it reads no table: with the table taken away the decision
	// still follows the kept counts. (The scan it replaced would see
	// three empty hosts here and rotate; its 3-entry map never left the
	// stack, so the allocation count alone could not tell the two apart.)
	m.place(m.table[loid.NewNoKey(256, 1)], m.hosts[1].l, oa.Address{}) // host 0 -> host 1
	m.place(m.table[loid.NewNoKey(256, 4)], m.hosts[2].l, oa.Address{}) // host 0 -> host 2
	m.table = nil
	for i := 0; i < 6; i++ {
		h, err := m.pickHostLocked(loid.Nil)
		if err != nil || !h.l.SameObject(m.hosts[0].l) {
			t.Fatalf("pick %d = %v, %v; want the least-populated host %v", i, h.l, err, m.hosts[0].l)
		}
	}
}

// BenchmarkActivate times Activate of an inert object, through the
// client, in a jurisdiction of `objects` residents on three hosts. Only
// the activation is timed; the deactivation that makes the object inert
// again is not. The two sizes must cost about the same (CI gates
// objects=4096 at 2x objects=64): before the counts were kept the
// placement scan made the larger one ~10x dearer.
func BenchmarkActivate(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			fx := newFixture(b, 3)
			ls := make([]loid.LOID, n)
			for i := range ls {
				ls[i] = loid.NewNoKey(256, uint64(i+1))
				if err := fx.client.Register(ls[i], "counter", nil); err != nil {
					b.Fatal(err)
				}
				if _, err := fx.client.Activate(ls[i], loid.Nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := ls[i%n]
				b.StopTimer()
				if err := fx.client.Deactivate(l); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := fx.client.Activate(l, loid.Nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
