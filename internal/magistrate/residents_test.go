package magistrate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
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

// checkSettled holds the table to what a finished step leaves behind:
// no record still claimed, every inert record activatable — its OPR
// readable from the store — and nothing in the store that no record
// refers to. (Inside a migration the claim is held, so this runs
// between steps only. A recovery may still be dropping the OPRs it
// started from when its records are already active, so the store gets
// a moment to catch up; an orphan never does.)
func (w *walker) checkSettled() {
	w.t.Helper()
	m := w.fx.mag
	m.mu.Lock()
	for id, rec := range m.table {
		if rec.busy {
			m.mu.Unlock()
			w.t.Fatalf("step %d (%s): %v left busy", w.step, w.op, id)
		}
		if !rec.active {
			if _, err := m.store.Get(rec.filed); err != nil {
				m.mu.Unlock()
				w.t.Fatalf("step %d (%s): inert %v has no readable OPR (%q): %v", w.step, w.op, id, rec.filed, err)
			}
		}
	}
	m.mu.Unlock()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		orphan := w.orphan()
		if orphan == "" {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("step %d (%s): the store keeps %q, which no record refers to", w.step, w.op, orphan)
		}
	}
}

// orphan returns an address in the store that is no record's OPR or
// checkpoint, or "" when there is none.
func (w *walker) orphan() persist.PersistentAddress {
	w.t.Helper()
	m := w.fx.mag
	m.mu.Lock()
	defer m.mu.Unlock()
	held := make(map[persist.PersistentAddress]bool, len(m.table))
	for _, rec := range m.table {
		held[rec.filed] = true
	}
	addrs, err := m.store.List()
	if err != nil {
		w.t.Fatalf("step %d (%s): list the store: %v", w.step, w.op, err)
	}
	for _, a := range addrs {
		if !held[a] {
			return a
		}
	}
	return ""
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
		if rec, ok := m.table[l.Ident()]; ok && rec.active && !rec.busy {
			ls, on = append(ls, l), append(on, rec.host)
		}
	}
	return ls, on
}

// settle waits for the background half of HostFailed (the adoption
// loop): every listed object active again, nothing in flight.
func (w *walker) settle(ls []loid.LOID) {
	w.t.Helper()
	m := w.fx.mag
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		pending := 0
		for _, l := range ls {
			if rec, ok := m.table[l.Ident()]; ok && (!rec.active || rec.busy) {
				pending++
			}
		}
		m.mu.Unlock()
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			w.checkSettled() // name the broken invariant, if one is
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
	if _, err := Register.Call(context.Background(), w.fx.client.Ref, l, "counter", nil); err != nil {
		w.t.Fatalf("step %d: register: %v", w.step, err)
	}
	w.objs = append(w.objs, l)
}

// instantiate makes an object the way a class's Create does, in one
// Instantiate, on a random host of the pool or where the Magistrate
// picks. It must file nothing in the store.
func (w *walker) instantiate() {
	w.next++
	l := loid.NewNoKey(256, w.next)
	hint := loid.Nil
	if in := w.pool(); len(in) > 0 && w.g.intn(2) == 0 {
		hint = w.fx.hostLs[in[w.g.intn(len(in))]]
	}
	records := w.fx.store.Stats().Records
	if _, err := instantiateOne(w.fx, Instance{l, "counter", nil, hint}); err != nil {
		w.t.Fatalf("step %d: instantiate %v: %v", w.step, l, err)
	}
	if n := w.fx.store.Stats().Records; n != records {
		w.t.Fatalf("step %d: instantiate %v took the store from %d records to %d", w.step, l, records, n)
	}
	w.objs = append(w.objs, l)
}

// instantiateFails runs an Instantiate that must fail and leave nothing:
// impl "refused" is turned away by the walk's activation filter on every
// host; impl "absent" passes the filter but no host can start it. Either
// way its record is inserted and must leave with the claim. With
// withdrawn set, the hinted host has just left the pool.
func (w *walker) instantiateFails(impl string, withdrawn bool) {
	in := w.pool()
	if len(in) < 2 {
		return
	}
	hint := w.fx.hostLs[in[w.g.intn(len(in))]]
	if withdrawn {
		if _, err := RemoveHost.Call(context.Background(), w.fx.client.Ref, hint); err != nil {
			w.t.Fatalf("step %d: remove host: %v", w.step, err)
		}
	}
	w.next++
	l := loid.NewNoKey(256, w.next)
	if _, err := instantiateOne(w.fx, Instance{l, impl, nil, hint}); err == nil {
		w.t.Fatalf("step %d: instantiate %v (%s) on %v succeeded", w.step, l, impl, hint)
	}
	m := w.fx.mag
	m.mu.Lock()
	_, kept := m.table[l.Ident()]
	m.mu.Unlock()
	if kept {
		w.t.Fatalf("step %d: the failed instantiate left %v in the table", w.step, l)
	}
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
	if _, err := Delete.Call(context.Background(), w.fx.client.Ref, w.objs[i]); err != nil {
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

// moveResidents moves some of the residents of a random host of the
// pool to another in one MoveResidents. With crashAt set, it moves them
// all, and the destination fails at that phase boundary of the set's
// middle object: the set's records are claimed, so HostFailed leaves
// them to the move, which reopens each on its source.
func (w *walker) moveResidents(crashAt string) {
	ls, on := w.placed()
	in := w.pool()
	var froms []int
	for _, i := range in {
		if slices.ContainsFunc(on, w.fx.hostLs[i].SameObject) {
			froms = append(froms, i)
		}
	}
	if len(froms) == 0 || len(in) < 2 {
		return
	}
	from := froms[w.g.intn(len(froms))]
	var dests []int
	for _, i := range in {
		if i != from {
			dests = append(dests, i)
		}
	}
	to := dests[w.g.intn(len(dests))]
	residents := 0
	for _, h := range on {
		if h.SameObject(w.fx.hostLs[from]) {
			residents++
		}
	}
	n := 1 + w.g.intn(residents)
	if crashAt != "" && len(in) < 3 {
		crashAt = "" // keep a survivor besides the other side
	}
	if crashAt != "" {
		n = residents // the host is evacuated; the crash lands mid-set
	}

	var affected []loid.LOID
	reached := 0
	w.fx.mag.SetMigrateHook(func(phase string, _, _, d loid.LOID) {
		w.check("at " + phase)
		if phase != crashAt {
			return
		}
		if reached++; reached != n/2+1 {
			return
		}
		for i, hl := range w.fx.hostLs {
			if hl.SameObject(d) {
				affected = w.failHost(i)
				w.injected[w.op]++
			}
		}
		w.check("HostFailed(dest) at " + phase)
	})
	ctx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	moved, err := MoveResidents.Call(ctx, w.fx.client.Ref, w.fx.hostLs[from], w.fx.hostLs[to], uint64(n))
	w.fx.mag.SetMigrateHook(nil)
	switch {
	case crashAt == "" && (err != nil || moved != uint64(n)):
		w.t.Fatalf("step %d: move %d of %d residents: %d moved, %v", w.step, n, residents, moved, err)
	case crashAt != "" && err == nil:
		w.t.Fatalf("step %d: move %d with the destination failed at %s succeeded", w.step, n, crashAt)
	}
	w.check("move returned")
	w.settle(append(affected, ls...))
}

// hostFailed crashes the fullest host of the pool and lets the
// adoption loop bring its residents back.
func (w *walker) hostFailed() {
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
	// The lost objects' callers, whose bindings went stale, re-activate
	// them while the adoption holds its claims: each activation waits on
	// a claim and must be woken when the adoption releases it.
	var (
		racers  sync.WaitGroup
		errMu   sync.Mutex
		raceErr error
	)
	m.SetAdoptHook(func(loid.LOID) {
		for _, l := range w.claimed() {
			racers.Add(1)
			go func() {
				defer racers.Done()
				if _, err := w.fx.client.Activate(l, loid.Nil); err != nil {
					errMu.Lock()
					raceErr = err
					errMu.Unlock()
				}
			}()
		}
		time.Sleep(2 * time.Millisecond) // let the activations reach the claims
	})
	defer m.SetAdoptHook(nil)
	affected := w.failHost(victim)
	w.check("HostFailed returned")
	w.settle(affected)
	racers.Wait()
	if raceErr != nil {
		w.t.Fatalf("step %d (%s): activation racing the adoption: %v", w.step, w.op, raceErr)
	}
}

// claimed returns the objects whose inert records are claimed.
func (w *walker) claimed() []loid.LOID {
	m := w.fx.mag
	m.mu.Lock()
	defer m.mu.Unlock()
	var ls []loid.LOID
	for id, rec := range m.table {
		if rec.busy && !rec.active {
			ls = append(ls, id.LOID())
		}
	}
	return ls
}

// removeHost withdraws a host from the pool without a failure: its
// residents keep running there and stay counted there.
func (w *walker) removeHost() {
	if in := w.pool(); len(in) >= 2 {
		if _, err := RemoveHost.Call(context.Background(), w.fx.client.Ref, w.fx.hostLs[in[w.g.intn(len(in))]]); err != nil {
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
		if _, err := AddHost.Call(context.Background(), w.fx.client.Ref, w.fx.hostLs[i], h.Address()); err != nil {
			w.t.Fatalf("step %d: re-add host: %v", w.step, err)
		}
	}
}

func TestResidentCountsMatchTable(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := &walker{t: t, fx: newFixture(t, 3), g: splitmix64{s: seed}, injected: map[string]int{}}
			w.fx.mag.SetFilter(func(_ loid.LOID, impl string, _ loid.LOID) error {
				if impl == "refused" {
					return errors.New("not run in this jurisdiction")
				}
				return nil
			})
			steps := []struct {
				name string
				do   func()
			}{
				{"create", w.create}, {"create", w.create},
				{"instantiate", w.instantiate}, {"instantiate", w.instantiate},
				{"instantiate/filter-refused", func() { w.instantiateFails("refused", false) }},
				{"instantiate/host-removed", func() { w.instantiateFails("counter", true) }},
				{"instantiate/start-fails", func() { w.instantiateFails("absent", false) }},
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
				{"move-residents", func() { w.moveResidents("") }},
				{"move-residents/dest-fails-shipped", func() { w.moveResidents("shipped") }},
				{"host-failed", w.hostFailed}, {"host-failed", w.hostFailed},
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
				w.checkSettled()
			}
			for i := 0; i < 150; i++ {
				s := steps[w.g.intn(len(steps))]
				w.step, w.op = w.step+1, s.name
				s.do()
				w.check("done")
				w.checkSettled()
			}
			// The walk must have gone down every settlement path.
			for _, c := range []string{"mig/success", "mig/aborts", "mag/bulk_adoptions"} {
				if w.fx.reg.CounterValue(c) == 0 {
					t.Errorf("walk never exercised %s", c)
				}
			}
			if len(w.injected) != 5 {
				t.Errorf("HostFailed landed on a migrating record in %v, want all five injections", w.injected)
			}
		})
	}
}

// TestDeleteDuringDeactivate: a Delete that lands while a Deactivate's
// SaveState is still running waits for the Deactivate's claim, then
// deletes the inert record and the OPR the Deactivate filed. Without the
// claim both succeed and the store keeps an OPR for an object the
// Magistrate no longer knows.
func TestDeleteDuringDeactivate(t *testing.T) {
	fx := newFixture(t, 1)
	saving, release := registerSlowSave(fx)
	if _, err := Register.Call(context.Background(), fx.client.Ref, objL, "slowsave", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.client.Activate(objL, loid.Nil); err != nil {
		t.Fatal(err)
	}
	deactivated, deleted := make(chan error, 1), make(chan error, 1)
	go func() { deactivated <- fx.client.Deactivate(objL) }()
	<-saving
	served := fx.mag.obj.Node().Served()
	go func() {
		_, err := Delete.Call(context.Background(), fx.client.Ref, objL)
		deleted <- err
	}()
	for fx.mag.obj.Node().Served() == served { // the Delete is in the Magistrate
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-deactivated; err != nil {
		t.Errorf("deactivate: %v", err)
	}
	if err := <-deleted; err != nil {
		t.Errorf("delete: %v", err)
	}
	if st, err := HasObject.Call(context.Background(), fx.client.Ref, objL); err != nil || st.Known {
		t.Errorf("after the delete: %+v, %v", st, err)
	}
	if n := fx.hosts[0].Running(); n != 0 {
		t.Errorf("host still runs %d objects", n)
	}
	w := &walker{t: t, fx: fx, op: "delete during deactivate"}
	w.check("done")
	w.checkSettled()
}

// TestDeactivateHostDiesUnderClaim: the host dies while a Deactivate
// holds the record's claim and waits for the save. HostFailed leaves the
// claimed record to the Deactivate, which fails at its deadline; its
// release settles the record lost and the recovery loop starts it on the
// survivor — one incarnation, nothing left in the store.
func TestDeactivateHostDiesUnderClaim(t *testing.T) {
	fx := newFixture(t, 2)
	saving, release := registerSlowSave(fx)
	defer close(release) // the dead incarnation's save returns into nothing
	if _, err := Register.Call(context.Background(), fx.client.Ref, objL, "slowsave", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.client.Activate(objL, fx.hostLs[0]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	deactivated := make(chan error, 1)
	go func() {
		_, err := Deactivate.Call(ctx, fx.client.Ref, objL)
		deactivated <- err
	}()
	<-saving
	fx.hosts[0].CrashResidents()
	if affected := fx.mag.HostFailed(fx.hostLs[0]); len(affected) != 0 {
		t.Errorf("HostFailed settled %v under the Deactivate's claim", affected)
	}
	if err := <-deactivated; err == nil {
		t.Error("Deactivate succeeded with its host dead")
	}
	w := &walker{t: t, fx: fx, op: "host dies under deactivate"}
	w.settle([]loid.LOID{objL})
	w.check("done")
	w.checkSettled()
	if n := fx.hosts[1].Running(); n != 1 {
		t.Errorf("the survivor runs %d objects, want the recovered one", n)
	}
}

// registerSlowSave registers impl "slowsave" on fx's hosts: a counter
// whose first SaveState closes saving, then waits for release to close.
func registerSlowSave(fx *fixture) (saving, release chan struct{}) {
	saving, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	fx.impls.MustRegister("slowsave", func() rt.Impl {
		impl := counterFactory().(*rt.Behavior)
		save := impl.Save
		impl.Save = func() ([]byte, error) {
			once.Do(func() { close(saving); <-release })
			return save()
		}
		return impl
	})
	return saving, release
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
		m.table[loid.NewNoKey(256, uint64(i+1)).Ident()] = rec
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
	m.place(m.table[loid.NewNoKey(256, 1).Ident()], m.hosts[1].l, oa.Address{}) // host 0 -> host 1
	m.place(m.table[loid.NewNoKey(256, 4).Ident()], m.hosts[2].l, oa.Address{}) // host 0 -> host 2
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
				if _, err := Register.Call(context.Background(), fx.client.Ref, ls[i], "counter", nil); err != nil {
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

// failingPut is a Store whose next Put or PutBatch fails once armed.
type failingPut struct {
	persist.Store
	armed atomic.Bool
}

func (s *failingPut) Put(o persist.OPR) (persist.PersistentAddress, error) {
	if s.armed.CompareAndSwap(true, false) {
		return "", errors.New("injected put failure")
	}
	return s.Store.Put(o)
}

func (s *failingPut) PutBatch(oprs []persist.OPR) ([]persist.PersistentAddress, error) {
	if s.armed.CompareAndSwap(true, false) {
		return nil, errors.New("injected put failure")
	}
	return s.Store.PutBatch(oprs)
}

// TestDeactivatePutFails: the store refuses the OPR of a drained
// object. The Deactivate fails, and the object reopens on the same
// host, which never let it go: the next Inc continues the count, and
// the table is settled.
func TestDeactivatePutFails(t *testing.T) {
	fx := newFixture(t, 1)
	store := &failingPut{Store: fx.store}
	fx.mag.store = store
	if _, err := Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil); err != nil {
		t.Fatal(err)
	}
	before := inc(t, fx, objL)
	store.armed.Store(true)
	if err := fx.client.Deactivate(objL); err == nil {
		t.Fatal("Deactivate succeeded with the store refusing its OPR")
	}
	if n := fx.hosts[0].Running(); n != 1 {
		t.Errorf("host runs %d objects after the failed Deactivate, want 1", n)
	}
	if got := inc(t, fx, objL); got != before+1 {
		t.Errorf("Inc after the failed Deactivate = %d, want %d", got, before+1)
	}
	w := &walker{t: t, fx: fx, op: "deactivate, put fails"}
	w.check("done")
	w.checkSettled()
}

// TestLostBlankRefusedActivates: an Instantiated object with no
// checkpoint dies with its host, and the store refuses the blank OPR
// its record is given. The record, left with no OPR address, reads as
// a blank OPR: the object comes back with its initial state instead of
// failing every Activate for good. While the activation filter refuses
// it, its failed starts leave the record in the table, inert: it is
// not mistaken for an unborn Instantiate.
func TestLostBlankRefusedActivates(t *testing.T) {
	fx := newFixture(t, 2)
	store := &failingPut{Store: fx.store}
	fx.mag.store = store
	if _, err := instantiateOne(fx, Instance{Object: objL, Impl: "counter", HostHint: fx.hostLs[0]}); err != nil {
		t.Fatal(err)
	}
	if got := inc(t, fx, objL); got != 1 {
		t.Fatalf("Inc = %d, want 1", got)
	}
	store.armed.Store(true)
	fx.mag.SetFilter(func(loid.LOID, string, loid.LOID) error { return errors.New("not now") })
	fx.hosts[0].CrashResidents()
	fx.mag.HostFailed(fx.hostLs[0])
	if store.armed.Load() {
		t.Fatal("HostFailed stored no blank OPR for the lost object")
	}
	if _, err := fx.client.Activate(objL, loid.Nil); err == nil {
		t.Fatal("Activate succeeded with the filter refusing the object")
	}
	fx.mag.mu.Lock()
	rec, ok := fx.mag.table[objL.Ident()]
	inert := ok && !rec.active && rec.filed == ""
	fx.mag.mu.Unlock()
	if !inert {
		t.Fatalf("after a refused start the record is %+v (in table: %v), want it inert with no OPR address", rec, ok)
	}
	fx.mag.SetFilter(nil)
	for want := uint64(1); want <= 2; want++ {
		if got := inc(t, fx, objL); got != want {
			t.Fatalf("Inc after the refused blank OPR = %d, want %d", got, want)
		}
	}
	checkRecovered(t, fx, []loid.LOID{objL}, fx.hostLs[0])
	w := &walker{t: t, fx: fx, op: "lost, blank refused"}
	w.check("done")
	w.checkSettled()
}
