package magistrate

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/host"
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

// fixture: a jurisdiction with two hosts, one magistrate, one client.
type fixture struct {
	fabric *transport.Fabric
	impls  *implreg.Registry // the hosts'
	store  *persist.MemStore
	reg    *metrics.Registry // the magistrate node's
	mag    *Magistrate
	magL   loid.LOID
	hosts  []*host.Host
	hostLs []loid.LOID
	client *Client
	caller *rt.Caller
}

func counterFactory() rt.Impl {
	var n uint64
	return &rt.Behavior{
		Iface: idl.NewInterface("Counter",
			idl.MethodSig{Name: "Inc", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}}),
		Handlers: map[string]rt.Handler{
			"Inc": func(inv *rt.Invocation) ([][]byte, error) {
				n++
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

func newFixture(t testing.TB, nHosts int) *fixture {
	t.Helper()
	f := transport.NewFabric(nil)
	t.Cleanup(func() { f.Close() })
	impls := implreg.NewRegistry()
	impls.MustRegister("counter", counterFactory)

	fx := &fixture{fabric: f, impls: impls, store: persist.NewMemStore(), reg: metrics.NewRegistry()}

	magNode, err := rt.NewNode(f, fx.reg, "mag")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { magNode.Close() })
	fx.magL = loid.NewNoKey(loid.ClassIDMagistrate, 1)
	fx.mag = New(fx.magL, fx.store)
	// Spawn with concurrent dispatch, as core does for service objects:
	// race tests need real concurrency inside the magistrate.
	if _, err := magNode.Spawn(fx.magL, fx.mag,
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nHosts; i++ {
		hn, err := rt.NewNode(f, nil, "host")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hn.Close() })
		hl := loid.NewNoKey(loid.ClassIDLegionHost, uint64(i+1))
		h := host.New(hl, hn, impls, nil)
		if _, err := hn.Spawn(hl, h); err != nil {
			t.Fatal(err)
		}
		fx.hosts = append(fx.hosts, h)
		fx.hostLs = append(fx.hostLs, hl)
	}

	cn, err := rt.NewNode(f, nil, "client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	fx.caller = rt.NewCaller(cn, loid.NewNoKey(300, 1), nil)
	fx.caller.Timeout = 2 * time.Second
	fx.caller.AddBinding(binding.Forever(fx.magL, magNode.Address()))
	fx.client = NewClient(fx.caller, fx.magL)

	for i, h := range fx.hosts {
		if _, err := AddHost.Call(context.Background(), fx.client.Ref, fx.hostLs[i], h.Address()); err != nil {
			t.Fatal(err)
		}
	}
	return fx
}

var objL = loid.NewNoKey(256, 1)

// instantiateOne sends Instantiate a set of one, as a lone Create does,
// and returns the object's binding or why it did not start.
func instantiateOne(fx *fixture, in Instance) (binding.Binding, error) {
	r, err := Instantiate.Call(context.Background(), fx.client.Ref, []Instance{in})
	if err != nil {
		return binding.Binding{}, err
	}
	if r.Bindings[0].Address.IsZero() {
		return binding.Binding{}, errors.New(r.Failure)
	}
	return r.Bindings[0], nil
}

// TestActivateOneArgument: the overloaded Activate(LOID) of §3.8, sent
// without a host hint, still activates.
func TestActivateOneArgument(t *testing.T) {
	fx := newFixture(t, 1)
	if _, err := Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil); err != nil {
		t.Fatal(err)
	}
	res, err := fx.caller.Call(fx.magL, "Activate", wire.LOID(objL))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := wire.AsBinding(raw); err != nil || b.LOID != objL || b.Address.IsZero() {
		t.Errorf("Activate(LOID) = %v, %v", b, err)
	}
}

func TestRegisterActivate(t *testing.T) {
	fx := newFixture(t, 2)
	if _, err := Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil); err != nil {
		t.Fatal(err)
	}
	// Registered but inert: known, not active, OPR in store.
	st, err := HasObject.Call(context.Background(), fx.client.Ref, objL)
	if err != nil || !st.Known || st.Active {
		t.Fatalf("HasObject = %+v, %v", st, err)
	}
	if fx.store.Len() != 1 {
		t.Errorf("store has %d OPRs, want 1", fx.store.Len())
	}
	b, err := fx.client.Activate(objL, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.LOID != objL || b.Address.IsZero() {
		t.Errorf("binding = %v", b)
	}
	// The OPR activation started from stays on file as the
	// incarnation's checkpoint: one record, no other.
	if fx.store.Len() != 1 {
		t.Errorf("store has %d OPRs after activation, want 1", fx.store.Len())
	}
	fx.mag.mu.Lock()
	active, filed := fx.mag.table[objL.Ident()].active, fx.mag.table[objL.Ident()].filed
	fx.mag.mu.Unlock()
	if !active || filed == "" {
		t.Errorf("record after activation: active %v, filed %q; want the OPR kept as the checkpoint", active, filed)
	}
	// The binding works.
	fx.caller.AddBinding(b)
	res, err := fx.caller.Call(objL, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Inc through binding: %v %v", res, err)
	}
}

func TestActivateIdempotent(t *testing.T) {
	fx := newFixture(t, 1)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	b1, err := fx.client.Activate(objL, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := fx.client.Activate(objL, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Address.Equal(b2.Address) {
		t.Error("double activation changed address")
	}
}

// TestInstantiateRedelivery: the caller's retry loop re-sends an
// Instantiate whose reply was late or lost. A second delivery while the
// first is still starting waits for it, one after it committed finds it
// running; both answer the first's binding, and the object starts once.
// While it starts, SaveState leaves the unborn record out.
func TestInstantiateRedelivery(t *testing.T) {
	fx := newFixture(t, 1)
	entered, gate := make(chan struct{}), make(chan struct{})
	var starts atomic.Int32
	fx.impls.MustRegister("gated", func() rt.Impl {
		if starts.Add(1) == 1 {
			close(entered)
			<-gate
		}
		return counterFactory()
	})
	type reply struct {
		b   binding.Binding
		err error
	}
	deliver := func() chan reply {
		ch := make(chan reply, 1)
		go func() {
			b, err := instantiateOne(fx, Instance{objL, "gated", nil, loid.Nil})
			ch <- reply{b, err}
		}()
		return ch
	}
	first := deliver()
	<-entered // the first delivery holds the claim, inside StartObjects

	st, err := fx.mag.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(fx.magL, persist.NewMemStore())
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if _, kept := restored.table[objL.Ident()]; kept {
		t.Error("SaveState kept a record whose Instantiate has not returned")
	}

	second := deliver()
	select {
	case r := <-second:
		t.Fatalf("redelivery answered while the first was starting: %v, %v", r.b, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	r1, r2 := <-first, <-second
	if r1.err != nil || r2.err != nil {
		t.Fatalf("deliveries: %v / %v", r1.err, r2.err)
	}
	r3 := <-deliver() // after the commit
	if r3.err != nil {
		t.Fatal(r3.err)
	}
	for _, r := range []reply{r2, r3} {
		if !r.b.Address.Equal(r1.b.Address) {
			t.Errorf("redelivery bound %v, first %v", r.b.Address, r1.b.Address)
		}
	}
	if n := starts.Load(); n != 1 || fx.hosts[0].Running() != 1 {
		t.Errorf("%d incarnations, %d running; want one", n, fx.hosts[0].Running())
	}
	// Only another impl under the same LOID is refused.
	if _, err := instantiateOne(fx, Instance{objL, "counter", nil, loid.Nil}); err == nil {
		t.Error("Instantiate under a held LOID with another impl succeeded")
	}

	// A set delivered twice, the second time while the first is still
	// starting and once more after it committed: each object starts
	// once, and every delivery answers the first's bindings.
	setEntered, setGate := make(chan struct{}), make(chan struct{})
	var setStarts atomic.Int32
	fx.impls.MustRegister("gated-set", func() rt.Impl {
		if setStarts.Add(1) == 1 {
			close(setEntered)
			<-setGate
		}
		return counterFactory()
	})
	set := make([]Instance, 3)
	for k := range set {
		set[k] = Instance{loid.NewNoKey(256, uint64(k+2)), "gated-set", nil, loid.Nil}
	}
	type setReply struct {
		r   Instantiated
		err error
	}
	deliverSet := func() chan setReply {
		ch := make(chan setReply, 1)
		go func() {
			r, err := Instantiate.Call(context.Background(), fx.client.Ref, set)
			ch <- setReply{r, err}
		}()
		return ch
	}
	firstSet := deliverSet()
	<-setEntered
	secondSet := deliverSet()
	select {
	case r := <-secondSet:
		t.Fatalf("set redelivery answered while the first was starting: %v, %v", r.r, r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(setGate)
	s1, s2 := <-firstSet, <-secondSet
	s3 := <-deliverSet()
	for _, r := range []setReply{s1, s2, s3} {
		if r.err != nil || r.r.Failure != "" || len(r.r.Bindings) != len(set) {
			t.Fatalf("set delivery: %v %q, %d bindings", r.err, r.r.Failure, len(r.r.Bindings))
		}
	}
	for k := range set {
		for _, r := range []setReply{s2, s3} {
			if !r.r.Bindings[k].Equal(s1.r.Bindings[k]) {
				t.Errorf("object %d: redelivery bound %v, first %v", k, r.r.Bindings[k], s1.r.Bindings[k])
			}
		}
	}
	if n := setStarts.Load(); n != int32(len(set)) || fx.hosts[0].Running() != 1+len(set) {
		t.Errorf("%d incarnations of the set's %d objects, %d running in all", n, len(set), fx.hosts[0].Running())
	}
}

func TestActivateUnknown(t *testing.T) {
	fx := newFixture(t, 1)
	if _, err := fx.client.Activate(objL, loid.Nil); err == nil {
		t.Error("activated unregistered object")
	}
}

func TestActivateHostHint(t *testing.T) {
	fx := newFixture(t, 3)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	hint := fx.hostLs[2]
	if _, err := fx.client.Activate(objL, hint); err != nil {
		t.Fatal(err)
	}
	if fx.hosts[2].Running() != 1 {
		t.Error("hint ignored")
	}
	// Bad hint refused.
	other := loid.NewNoKey(loid.ClassIDLegionHost, 99)
	l2 := loid.NewNoKey(256, 2)
	_, _ = Register.Call(context.Background(), fx.client.Ref, l2, "counter", nil)
	if _, err := fx.client.Activate(l2, other); err == nil {
		t.Error("foreign host hint accepted")
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	fx := newFixture(t, 2)
	for i := 0; i < 4; i++ {
		l := loid.NewNoKey(256, uint64(i+1))
		_, _ = Register.Call(context.Background(), fx.client.Ref, l, "counter", nil)
		if _, err := fx.client.Activate(l, loid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	if fx.hosts[0].Running() != 2 || fx.hosts[1].Running() != 2 {
		t.Errorf("placement = %d/%d, want 2/2", fx.hosts[0].Running(), fx.hosts[1].Running())
	}
}

func TestDeactivatePersistsState(t *testing.T) {
	fx := newFixture(t, 1)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	b, _ := fx.client.Activate(objL, loid.Nil)
	fx.caller.AddBinding(b)
	for i := 0; i < 3; i++ {
		fx.caller.Call(objL, "Inc")
	}
	if err := fx.client.Deactivate(objL); err != nil {
		t.Fatal(err)
	}
	if fx.hosts[0].Running() != 0 {
		t.Error("object still running after deactivate")
	}
	if fx.store.Len() != 1 {
		t.Errorf("store has %d OPRs", fx.store.Len())
	}
	// Deactivating an inert object is a no-op.
	if err := fx.client.Deactivate(objL); err != nil {
		t.Errorf("second deactivate: %v", err)
	}
	// "Referring to the LOID of an Inert object can cause the object to
	// be activated" — reactivate and check the counter continued.
	b, err := fx.client.Activate(objL, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(b)
	res, err := fx.caller.Call(objL, "Inc")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 4 {
		t.Errorf("counter = %d, want 4 (state lost in deactivation?)", v)
	}
}

func TestDeleteActiveAndInert(t *testing.T) {
	fx := newFixture(t, 1)
	// Active delete.
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	fx.client.Activate(objL, loid.Nil)
	if _, err := Delete.Call(context.Background(), fx.client.Ref, objL); err != nil {
		t.Fatal(err)
	}
	if fx.hosts[0].Running() != 0 || fx.store.Len() != 0 {
		t.Error("delete left residue")
	}
	if st, _ := HasObject.Call(context.Background(), fx.client.Ref, objL); st.Known {
		t.Error("deleted object still known")
	}
	// Inert delete.
	l2 := loid.NewNoKey(256, 2)
	_, _ = Register.Call(context.Background(), fx.client.Ref, l2, "counter", nil)
	if _, err := Delete.Call(context.Background(), fx.client.Ref, l2); err != nil {
		t.Fatal(err)
	}
	if fx.store.Len() != 0 {
		t.Error("inert delete left OPR")
	}
	// Delete of unknown is an error.
	if _, err := Delete.Call(context.Background(), fx.client.Ref, loid.NewNoKey(256, 9)); err == nil {
		t.Error("unknown delete succeeded")
	}
}

// twoMagistrates builds two jurisdictions that can reach each other.
func twoMagistrates(t *testing.T) (*fixture, *Magistrate, loid.LOID, *Client, *persist.MemStore, []*host.Host) {
	t.Helper()
	fx := newFixture(t, 1)

	// Second magistrate with its own store and host on the same fabric.
	impls := implreg.NewRegistry()
	impls.MustRegister("counter", counterFactory)
	store2 := persist.NewMemStore()
	magNode2, err := rt.NewNode(fx.fabric, nil, "mag2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { magNode2.Close() })
	magL2 := loid.NewNoKey(loid.ClassIDMagistrate, 2)
	mag2 := New(magL2, store2)
	if _, err := magNode2.Spawn(magL2, mag2); err != nil {
		t.Fatal(err)
	}
	hn, err := rt.NewNode(fx.fabric, nil, "host2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hn.Close() })
	hl := loid.NewNoKey(loid.ClassIDLegionHost, 50)
	h2 := host.New(hl, hn, impls, nil)
	if _, err := hn.Spawn(hl, h2); err != nil {
		t.Fatal(err)
	}
	cl2 := NewClient(fx.caller, magL2)
	fx.caller.AddBinding(binding.Forever(magL2, magNode2.Address()))
	if _, err := AddHost.Call(context.Background(), cl2.Ref, hl, h2.Address()); err != nil {
		t.Fatal(err)
	}
	// Magistrate 1 must be able to reach magistrate 2 (migration).
	fx.mag.obj.Caller().AddBinding(binding.Forever(magL2, magNode2.Address()))
	return fx, mag2, magL2, cl2, store2, []*host.Host{h2}
}

func TestCopyBetweenJurisdictions(t *testing.T) {
	fx, _, magL2, cl2, store2, _ := twoMagistrates(t)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	b, _ := fx.client.Activate(objL, loid.Nil)
	fx.caller.AddBinding(b)
	fx.caller.Call(objL, "Inc")

	if _, err := Copy.Call(context.Background(), fx.client.Ref, objL, magL2); err != nil {
		t.Fatal(err)
	}
	// Copy deactivates locally and both jurisdictions hold an OPR.
	if fx.store.Len() != 1 || store2.Len() != 1 {
		t.Errorf("OPRs = %d/%d, want 1/1", fx.store.Len(), store2.Len())
	}
	if st, _ := HasObject.Call(context.Background(), fx.client.Ref, objL); !st.Known {
		t.Error("source lost the object after Copy")
	}
	// The destination can activate its copy, state intact.
	b2, err := cl2.Activate(objL, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.Cache().InvalidateLOID(objL)
	fx.caller.AddBinding(b2)
	res, err := fx.caller.Call(objL, "Inc")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 2 {
		t.Errorf("migrated counter = %d, want 2", v)
	}
}

func TestMoveBetweenJurisdictions(t *testing.T) {
	fx, _, magL2, cl2, store2, hosts2 := twoMagistrates(t)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	fx.client.Activate(objL, loid.Nil)

	if _, err := Move.Call(context.Background(), fx.client.Ref, objL, magL2); err != nil {
		t.Fatal(err)
	}
	if st, _ := HasObject.Call(context.Background(), fx.client.Ref, objL); st.Known {
		t.Error("source still knows moved object")
	}
	if fx.store.Len() != 0 {
		t.Error("source kept OPR after Move")
	}
	if store2.Len() != 1 {
		t.Error("destination missing OPR after Move")
	}
	if _, err := cl2.Activate(objL, loid.Nil); err != nil {
		t.Fatal(err)
	}
	if hosts2[0].Running() != 1 {
		t.Error("moved object not running in destination jurisdiction")
	}
}

func TestGetBinding(t *testing.T) {
	fx := newFixture(t, 1)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	if _, err := GetBinding.Call(context.Background(), fx.client.Ref, objL); err == nil {
		t.Error("GetBinding of inert object succeeded")
	}
	want, _ := fx.client.Activate(objL, loid.Nil)
	got, err := GetBinding.Call(context.Background(), fx.client.Ref, objL)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Address.Equal(want.Address) {
		t.Errorf("GetBinding = %v, want %v", got, want)
	}
}

func TestActivationFilterRefuses(t *testing.T) {
	fx := newFixture(t, 1)
	fx.mag.SetFilter(func(object loid.LOID, impl string, onHost loid.LOID) error {
		if impl == "counter" {
			return errors.New("implementation not certified")
		}
		return nil
	})
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	_, err := fx.client.Activate(objL, loid.Nil)
	if err == nil || !strings.Contains(err.Error(), "refuses") {
		t.Errorf("filter not applied: %v", err)
	}
}

func TestBindingTTL(t *testing.T) {
	fx := newFixture(t, 1)
	fx.mag.BindingTTL = time.Hour
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	b, err := fx.client.Activate(objL, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Expires.IsZero() {
		t.Error("TTL binding has no expiry")
	}
	if !b.ValidAt(time.Now()) || b.ValidAt(time.Now().Add(2*time.Hour)) {
		t.Error("expiry window wrong")
	}
}

func TestHostManagement(t *testing.T) {
	fx := newFixture(t, 2)
	hosts, err := fx.client.ListHosts()
	if err != nil || len(hosts) != 2 {
		t.Fatalf("ListHosts = %v, %v", hosts, err)
	}
	if _, err := RemoveHost.Call(context.Background(), fx.client.Ref, fx.hostLs[0]); err != nil {
		t.Fatal(err)
	}
	hosts, _ = fx.client.ListHosts()
	if len(hosts) != 1 || !hosts[0].SameObject(fx.hostLs[1]) {
		t.Errorf("after remove: %v", hosts)
	}
	// Re-adding a host updates rather than duplicates.
	_, _ = AddHost.Call(context.Background(), fx.client.Ref, fx.hostLs[1], fx.hosts[1].Address())
	hosts, _ = fx.client.ListHosts()
	if len(hosts) != 1 {
		t.Errorf("duplicate host entries: %v", hosts)
	}
}

func TestListObjects(t *testing.T) {
	fx := newFixture(t, 1)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)
	_, _ = Register.Call(context.Background(), fx.client.Ref, loid.NewNoKey(256, 2), "counter", nil)
	ls, err := fx.client.ListObjects()
	if err != nil || len(ls) != 2 {
		t.Errorf("ListObjects = %v, %v", ls, err)
	}
}

func TestMagistrateStateRoundTrip(t *testing.T) {
	fx := newFixture(t, 2)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", []byte{})
	blob, err := fx.mag.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(loid.NewNoKey(loid.ClassIDMagistrate, 9), fx.store)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if len(m2.hosts) != 2 {
		t.Errorf("restored hosts = %d", len(m2.hosts))
	}
	rec, ok := m2.table[objL.Ident()]
	if !ok || rec.impl != "counter" || rec.filed == "" {
		t.Errorf("restored record = %+v, %v", rec, ok)
	}
	if err := m2.RestoreState(blob[:len(blob)-1]); err == nil {
		t.Error("truncated state accepted")
	}
	if err := m2.RestoreState(nil); err != nil {
		t.Error("empty state rejected")
	}
}

// TestConcurrentActivationRace: many clients Activate the same inert
// object simultaneously; exactly one activation happens and every
// caller receives a working binding (the racers wait on the first
// one's claim and re-check the record).
func TestConcurrentActivationRace(t *testing.T) {
	fx := newFixture(t, 2)
	_, _ = Register.Call(context.Background(), fx.client.Ref, objL, "counter", nil)

	const racers = 8
	type out struct {
		b   binding.Binding
		err error
	}
	results := make(chan out, racers)
	for i := 0; i < racers; i++ {
		cn, err := rt.NewNode(fx.fabric, nil, "racer")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cn.Close() })
		caller := rt.NewCaller(cn, loid.NewNoKey(300, uint64(i+10)), nil)
		caller.Timeout = 3 * time.Second
		caller.AddBinding(binding.Forever(fx.magL, mustAddr(t, fx)))
		go func() {
			b, err := NewClient(caller, fx.magL).Activate(objL, loid.Nil)
			results <- out{b, err}
		}()
	}
	var addrs []binding.Binding
	for i := 0; i < racers; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("racer error: %v", r.err)
		}
		addrs = append(addrs, r.b)
	}
	for _, b := range addrs[1:] {
		if !b.Address.Equal(addrs[0].Address) {
			t.Fatalf("racers got different addresses: %v vs %v", b.Address, addrs[0].Address)
		}
	}
	// Exactly one host runs the object.
	running := 0
	for _, h := range fx.hosts {
		running += h.Running()
	}
	if running != 1 {
		t.Errorf("object running on %d hosts", running)
	}
}

// mustAddr digs the magistrate's address out of the fixture caller's
// cache.
func mustAddr(t *testing.T, fx *fixture) oa.Address {
	t.Helper()
	b, ok := fx.caller.Cache().Get(fx.magL)
	if !ok {
		t.Fatal("fixture lost the magistrate binding")
	}
	return b.Address
}

// TestJurisdictionHierarchy organizes two child magistrates under a
// parent (§2.2): the parent answers Activate/HasObject/Deactivate/
// Delete for any object anywhere in the hierarchy by delegation.
func TestJurisdictionHierarchy(t *testing.T) {
	fx, _, magL2, cl2, _, _ := twoMagistrates(t)

	// A third magistrate acts as the parent of the two leaves; it has
	// no hosts or objects of its own.
	parentNode, err := rt.NewNode(fx.fabric, nil, "parent")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { parentNode.Close() })
	parentL := loid.NewNoKey(loid.ClassIDMagistrate, 10)
	parent := New(parentL, persist.NewMemStore())
	parentCaller := rt.NewCaller(parentNode, parentL, nil)
	parentCaller.Timeout = 3 * time.Second
	if _, err := parentNode.Spawn(parentL, parent,
		rt.WithCaller(parentCaller), rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	pc := NewClient(fx.caller, parentL)
	fx.caller.AddBinding(binding.Forever(parentL, parentNode.Address()))

	// Enroll children (addresses from the fixture caller's cache).
	b1, _ := fx.caller.Cache().Get(fx.magL)
	b2, _ := fx.caller.Cache().Get(magL2)
	if _, err := AddSubMagistrate.Call(context.Background(), pc.Ref, fx.magL, b1.Address); err != nil {
		t.Fatal(err)
	}
	if _, err := AddSubMagistrate.Call(context.Background(), pc.Ref, magL2, b2.Address); err != nil {
		t.Fatal(err)
	}
	subs, err := ListSubMagistrates.Call(context.Background(), pc.Ref)
	if err != nil || len(subs) != 2 {
		t.Fatalf("ListSubMagistrates = %v, %v", subs, err)
	}
	// Self-enrollment refused (trivial cycle).
	if _, err := AddSubMagistrate.Call(context.Background(), pc.Ref, parentL, parentNode.Address()); err == nil {
		t.Error("parent accepted itself as sub-magistrate")
	}

	// Objects registered with each child.
	objA := loid.NewNoKey(256, 41)
	objB := loid.NewNoKey(256, 42)
	if _, err := Register.Call(context.Background(), fx.client.Ref, objA, "counter", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Register.Call(context.Background(), cl2.Ref, objB, "counter", nil); err != nil {
		t.Fatal(err)
	}

	// The parent sees the union of the hierarchy.
	for _, obj := range []loid.LOID{objA, objB} {
		st, err := HasObject.Call(context.Background(), pc.Ref, obj)
		if err != nil || !st.Known {
			t.Fatalf("parent HasObject(%v) = %v, %v", obj, st.Known, err)
		}
	}
	// Activate through the parent: delegated to the right child.
	bA, err := pc.Activate(objA, loid.Nil)
	if err != nil || bA.Address.IsZero() {
		t.Fatalf("parent Activate(objA): %v %v", bA, err)
	}
	bB, err := pc.Activate(objB, loid.Nil)
	if err != nil || bB.Address.IsZero() {
		t.Fatalf("parent Activate(objB): %v %v", bB, err)
	}
	// GetBinding through the parent.
	gb, err := GetBinding.Call(context.Background(), pc.Ref, objB)
	if err != nil || !gb.Address.Equal(bB.Address) {
		t.Fatalf("parent GetBinding(objB): %v %v", gb, err)
	}
	// Deactivate + Delete through the parent.
	if err := pc.Deactivate(objA); err != nil {
		t.Fatal(err)
	}
	if st, _ := HasObject.Call(context.Background(), pc.Ref, objA); !st.Known || st.Active {
		t.Errorf("after parent Deactivate: known=%v active=%v", st.Known, st.Active)
	}
	if _, err := Delete.Call(context.Background(), pc.Ref, objB); err != nil {
		t.Fatal(err)
	}
	if st, _ := HasObject.Call(context.Background(), pc.Ref, objB); st.Known {
		t.Error("objB survived parent Delete")
	}
	// Unknown objects still error.
	if _, err := pc.Activate(loid.NewNoKey(256, 99), loid.Nil); err == nil {
		t.Error("parent activated unknown object")
	}
	// Removing a child stops delegation to it.
	if _, err := RemoveSubMagistrate.Call(context.Background(), pc.Ref, fx.magL); err != nil {
		t.Fatal(err)
	}
	if st, _ := HasObject.Call(context.Background(), pc.Ref, objA); st.Known {
		t.Error("parent still sees removed child's object")
	}
}

// TestHierarchyPersistsInState: the sub-magistrate list survives the
// magistrate's own deactivation (magistrates are objects too).
func TestHierarchyPersistsInState(t *testing.T) {
	fx := newFixture(t, 1)
	sub := loid.NewNoKey(loid.ClassIDMagistrate, 77)
	subAddr := oa.Single(oa.MemElement(777))
	if _, err := AddSubMagistrate.Call(context.Background(), fx.client.Ref, sub, subAddr); err != nil {
		t.Fatal(err)
	}
	blob, err := fx.mag.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(loid.NewNoKey(loid.ClassIDMagistrate, 9), fx.store)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if len(m2.subs) != 1 || !m2.subs[0].l.SameObject(sub) || !m2.subs[0].addr.Equal(subAddr) {
		t.Errorf("restored subs = %+v", m2.subs)
	}
}

// TestForgetHostsDropsSubs: ForgetHosts drops the sub-magistrates a
// restored state names along with its hosts, so no lookup of an unknown
// LOID asks a Magistrate of a previous life.
func TestForgetHostsDropsSubs(t *testing.T) {
	fx := newFixture(t, 1)
	if _, err := AddSubMagistrate.Call(context.Background(), fx.client.Ref, loid.NewNoKey(loid.ClassIDMagistrate, 77), oa.Single(oa.MemElement(777))); err != nil {
		t.Fatal(err)
	}
	blob, err := fx.mag.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(loid.NewNoKey(loid.ClassIDMagistrate, 9), fx.store)
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	m2.ForgetHosts()
	if subs, _ := m2.listSubs(context.Background()); len(subs) != 0 {
		t.Errorf("after ForgetHosts the Magistrate lists subs %v", subs)
	}
}
