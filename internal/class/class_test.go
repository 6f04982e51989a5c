package class

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// staticResolver resolves from a shared, mutable table; the test
// fixture stands in for the Binding Agent layer.
type staticResolver struct {
	mu    *sync.Mutex
	table map[loid.LOID]binding.Binding
}

func (s *staticResolver) ResolveCtx(_ context.Context, l loid.LOID) (binding.Binding, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.table[l.ID()]
	if !ok {
		return binding.Binding{}, errors.New("static resolver: not found")
	}
	return b, nil
}

func (s *staticResolver) RefreshCtx(ctx context.Context, stale binding.Binding) (binding.Binding, error) {
	return s.ResolveCtx(ctx, stale.LOID)
}

type fixture struct {
	fabric   *transport.Fabric
	impls    *implreg.Registry
	resolver *staticResolver
	metaNode *rt.Node
	meta     *Metaclass
	magL     loid.LOID
	mag      *Magistrate2
	store    *persist.MemStore // the magistrate's
	nodes    []*rt.Node
	hostL    loid.LOID
	hostObj  *host.Host
	caller   *rt.Caller
	root     *Client // a concrete root class to derive from
	rootL    loid.LOID
}

// Magistrate2 aliases to keep the import tidy in this test file.
type Magistrate2 = magistrate.Magistrate

func echoFactory() rt.Impl {
	return &rt.Behavior{
		Iface: idl.NewInterface("Echo",
			idl.MethodSig{Name: "Echo",
				Params:  []idl.Param{{Name: "x", Type: idl.TBytes}},
				Returns: []idl.Param{{Name: "x", Type: idl.TBytes}}}),
		Handlers: map[string]rt.Handler{
			"Echo": func(inv *rt.Invocation) ([][]byte, error) {
				a, err := inv.Arg(0)
				return [][]byte{a}, err
			},
		},
	}
}

func greetFactory() rt.Impl {
	return &rt.Behavior{
		Iface: idl.NewInterface("Greeter",
			idl.MethodSig{Name: "Greet",
				Returns: []idl.Param{{Name: "msg", Type: idl.TString}}}),
		Handlers: map[string]rt.Handler{
			"Greet": func(inv *rt.Invocation) ([][]byte, error) {
				return [][]byte{wire.String("hello")}, nil
			},
		},
	}
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	fx := &fixture{
		fabric:   transport.NewFabric(nil),
		impls:    implreg.NewRegistry(),
		resolver: &staticResolver{mu: &sync.Mutex{}, table: map[loid.LOID]binding.Binding{}},
	}
	t.Cleanup(func() { fx.fabric.Close() })
	fx.impls.MustRegister("echo", echoFactory)
	fx.impls.MustRegister("greeter", greetFactory)
	fx.impls.MustRegister(ImplName, NewEmptyClassImpl)

	seed := func(l loid.LOID, addr oa.Address) {
		fx.resolver.mu.Lock()
		fx.resolver.table[l.ID()] = binding.Forever(l, addr)
		fx.resolver.mu.Unlock()
	}
	newNode := func(name string) *rt.Node {
		n, err := rt.NewNode(fx.fabric, nil, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		fx.nodes = append(fx.nodes, n)
		return n
	}
	resFactory := func(self loid.LOID) rt.Resolver { return fx.resolver }

	// LegionClass.
	fx.metaNode = newNode("legionclass")
	var err error
	fx.meta, err = NewMetaclass()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.metaNode.Spawn(loid.LegionClass, fx.meta,
		rt.WithCaller(rt.NewCaller(fx.metaNode, loid.LegionClass, fx.resolver))); err != nil {
		t.Fatal(err)
	}
	seed(loid.LegionClass, fx.metaNode.Address())

	// One host.
	hostNode := newNode("host")
	fx.hostL = loid.NewNoKey(loid.ClassIDLegionHost, 1)
	fx.hostObj = host.New(fx.hostL, hostNode, fx.impls, resFactory)
	if _, err := hostNode.Spawn(fx.hostL, fx.hostObj); err != nil {
		t.Fatal(err)
	}
	seed(fx.hostL, hostNode.Address())

	// One magistrate over that host.
	magNode := newNode("mag")
	fx.magL = loid.NewNoKey(loid.ClassIDMagistrate, 1)
	fx.store = persist.NewMemStore()
	fx.mag = magistrate.New(fx.magL, fx.store)
	if _, err := magNode.Spawn(fx.magL, fx.mag,
		rt.WithCaller(rt.NewCaller(magNode, fx.magL, fx.resolver))); err != nil {
		t.Fatal(err)
	}
	seed(fx.magL, magNode.Address())

	// Client caller.
	clientNode := newNode("client")
	fx.caller = rt.NewCaller(clientNode, loid.NewNoKey(300, 1), fx.resolver)
	fx.caller.Timeout = 3 * time.Second

	if _, err := magistrate.AddHost.Call(context.Background(), fx.caller.To(fx.magL), fx.hostL, fx.hostObj.Address()); err != nil {
		t.Fatal(err)
	}

	// A concrete root class "EchoClass" spawned out-of-band on its own
	// node (like a core class), from which tests derive.
	rootNode := newNode("rootclass")
	rootMeta := &Meta{
		Self:               loid.New(100, 0, loid.DeriveKey("class/EchoClass")),
		Name:               "EchoClass",
		Super:              loid.LegionObject,
		ImplParts:          []string{"echo"},
		InstanceInterface:  echoFactory().Interface(),
		DefaultMagistrates: []loid.LOID{fx.magL},
	}
	fx.rootL = rootMeta.Self
	rootImpl, err := NewClassImpl(rootMeta)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rootNode.Spawn(fx.rootL, rootImpl,
		rt.WithCaller(rt.NewCaller(rootNode, fx.rootL, fx.resolver))); err != nil {
		t.Fatal(err)
	}
	seed(fx.rootL, rootNode.Address())
	// LegionClass must know it can answer for this class directly and
	// treat derived classes as its responsibility.
	mc := fx.caller.To(loid.LegionClass)
	if _, err := RegisterClassBinding.Call(context.Background(), mc, fx.rootL, rootNode.Address()); err != nil {
		t.Fatal(err)
	}
	fx.root = NewClient(fx.caller, fx.rootL)
	return fx
}

func (fx *fixture) seedBinding(b binding.Binding) {
	fx.resolver.mu.Lock()
	fx.resolver.table[b.LOID.ID()] = b
	fx.resolver.mu.Unlock()
}

func TestCreateInstance(t *testing.T) {
	fx := newFixture(t)
	l, b, err := fx.root.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.ClassID != 100 || l.ClassSpecific == 0 {
		t.Errorf("instance LOID = %v", l)
	}
	if l.Key == (loid.Key{}) {
		t.Error("instance has no public key")
	}
	// Invoke through the returned binding.
	fx.caller.AddBinding(b)
	res, err := fx.caller.Call(l, "Echo", []byte("hi"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Echo on created instance: %v %v", res, err)
	}
	out, _ := res.Result(0)
	if string(out) != "hi" {
		t.Errorf("Echo = %q", out)
	}
}

func TestCreateUniqueLOIDs(t *testing.T) {
	fx := newFixture(t)
	seen := map[loid.LOID]bool{}
	for i := 0; i < 10; i++ {
		l, _, err := fx.root.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[l.ID()] {
			t.Fatalf("duplicate LOID %v", l)
		}
		seen[l.ID()] = true
	}
}

func TestClassGetBindingFromTable(t *testing.T) {
	fx := newFixture(t)
	l, want, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	got, err := fx.root.GetBinding(l)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Address.Equal(want.Address) {
		t.Errorf("GetBinding = %v, want %v", got, want)
	}
	if _, err := fx.root.GetBinding(loid.NewNoKey(100, 999)); err == nil {
		t.Error("GetBinding of unknown object succeeded")
	}
}

func TestClassGetBindingActivatesInert(t *testing.T) {
	fx := newFixture(t)
	l, _, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	// Deactivate behind the class's back, then tell the class its
	// address is gone (as the magistrate would).
	if err := magistrate.NewClient(fx.caller, fx.magL).Deactivate(l); err != nil {
		t.Fatal(err)
	}
	if _, err := NotifyDeactivated.Call(context.Background(), fx.root.Ref, l); err != nil {
		t.Fatal(err)
	}
	// "Referring to the LOID of an Inert object can cause the object
	// to be activated" (§4.1.2): GetBinding must consult the Magistrate.
	b, err := fx.root.GetBinding(l)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.Cache().InvalidateLOID(l)
	fx.caller.AddBinding(b)
	res, err := fx.caller.Call(l, "Echo", []byte("back"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Echo after reactivation: %v %v", res, err)
	}
}

func TestRefreshBindingOnStale(t *testing.T) {
	fx := newFixture(t)
	l, stale, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	// Deactivate: the class still has the stale address in its table.
	magistrate.NewClient(fx.caller, fx.magL).Deactivate(l)
	// Plain GetBinding would return the stale table entry; the
	// GetBinding(binding) overload must do better.
	fresh, err := RefreshBinding.Call(context.Background(), fx.root.Ref, stale)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.Cache().InvalidateLOID(l)
	fx.caller.AddBinding(fresh)
	res, err := fx.caller.Call(l, "Echo", []byte("x"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call on refreshed binding: %v %v", res, err)
	}
}

func TestDeriveSubclass(t *testing.T) {
	fx := newFixture(t)
	sub, b, err := fx.root.Derive("EchoChild", "", nil, 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.IsClass() {
		t.Errorf("subclass LOID %v is not a class LOID", sub)
	}
	if sub.ClassID < loid.FirstUserClassID {
		t.Errorf("subclass id %d not allocated by LegionClass", sub.ClassID)
	}
	fx.seedBinding(b)
	subCl := NewClient(fx.caller, sub)
	info, err := Info.Call(context.Background(), subCl.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "EchoChild" || !info.Super.SameObject(fx.rootL) {
		t.Errorf("Info = %+v", info)
	}
	// Subclass inherits the instance interface (§2.1).
	ifc, err := GetInstanceInterface.Call(context.Background(), subCl.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if !ifc.Has("Echo") {
		t.Error("subclass lost superclass method")
	}
	// Subclass can create working instances.
	l, ib, err := subCl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.ClassID != sub.ClassID {
		t.Errorf("instance %v not of subclass %v", l, sub)
	}
	fx.caller.AddBinding(ib)
	res, err := fx.caller.Call(l, "Echo", []byte("sub"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("subclass instance call: %v %v", res, err)
	}
	// Responsibility pair recorded: LegionClass points to the parent.
	mc := fx.caller.To(loid.LegionClass)
	resp, err := WhoIsResponsible.Call(context.Background(), mc, sub)
	if err != nil || !resp.SameObject(fx.rootL) {
		t.Errorf("WhoIsResponsible = %v, %v", resp, err)
	}
	// Parent's table shows a kind-of row.
	row, err := GetRow.Call(context.Background(), fx.root.Ref, sub)
	if err != nil || !row.IsSubclass {
		t.Errorf("GetRow = %+v, %v", row, err)
	}
	// Parent counts one subclass.
	pInfo, _ := Info.Call(context.Background(), fx.root.Ref)
	if pInfo.Subclasses != 1 {
		t.Errorf("parent subclass count = %d", pInfo.Subclasses)
	}
}

func TestInheritFromMultipleInheritance(t *testing.T) {
	fx := newFixture(t)
	// Derive a base class with a different implementation.
	baseL, bb, err := fx.root.Derive("GreeterClass", "greeter", greetFactory().Interface(), 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.seedBinding(bb)
	// Derive the target class and make it inherit from GreeterClass —
	// the two-step multiple inheritance of §2.1.
	subL, sb, err := fx.root.Derive("EchoGreeter", "", nil, 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.seedBinding(sb)
	subCl := NewClient(fx.caller, subL)
	if _, err := InheritFrom.Call(context.Background(), subCl.Ref, baseL); err != nil {
		t.Fatal(err)
	}
	// Future instances export both interfaces.
	ifc, _ := GetInstanceInterface.Call(context.Background(), subCl.Ref)
	if !ifc.Has("Echo") || !ifc.Has("Greet") {
		t.Fatalf("merged interface missing methods:\n%s", ifc.Format())
	}
	l, ib, err := subCl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(ib)
	res, err := fx.caller.Call(l, "Echo", []byte("mi"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Echo: %v %v", res, err)
	}
	res, err = fx.caller.Call(l, "Greet")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Greet: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if wire.AsString(raw) != "hello" {
		t.Errorf("Greet = %q", raw)
	}
}

func TestInheritFromDoesNotAffectExistingInstances(t *testing.T) {
	fx := newFixture(t)
	subL, sb, _ := fx.root.Derive("Evolving", "", nil, 0, loid.Nil)
	fx.seedBinding(sb)
	subCl := NewClient(fx.caller, subL)
	before, ib, err := subCl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(ib)

	baseL, bb, _ := fx.root.Derive("GreeterBase", "greeter", greetFactory().Interface(), 0, loid.Nil)
	fx.seedBinding(bb)
	if _, err := InheritFrom.Call(context.Background(), subCl.Ref, baseL); err != nil {
		t.Fatal(err)
	}
	// "It serves to alter the composition of FUTURE instances" (§2.1.1):
	// the pre-existing instance does not gain Greet.
	res, _ := fx.caller.Call(before, "Greet")
	if res.Code != wire.ErrNoSuchMethod {
		t.Errorf("old instance answered Greet: %v", res.Code)
	}
	after, ab, err := subCl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(ab)
	res, _ = fx.caller.Call(after, "Greet")
	if res.Code != wire.OK {
		t.Errorf("new instance missing Greet: %v", res.Code)
	}
}

func TestAbstractPrivateFixedFlags(t *testing.T) {
	fx := newFixture(t)
	// Abstract: Create is empty (§2.1.2).
	absL, ab, err := fx.root.Derive("AbstractChild", "", nil, FlagAbstract, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.seedBinding(ab)
	absCl := NewClient(fx.caller, absL)
	if _, _, err := absCl.Create(nil, loid.Nil, loid.Nil); err == nil || !strings.Contains(err.Error(), "Abstract") {
		t.Errorf("Abstract Create: %v", err)
	}
	// ...but Abstract classes can still derive.
	if _, _, err := absCl.Derive("ConcreteGrandchild", "echo", echoFactory().Interface(), 0, loid.Nil); err != nil {
		t.Errorf("Abstract Derive: %v", err)
	}

	// Private: Derive is empty.
	privL, pb, err := fx.root.Derive("PrivateChild", "", nil, FlagPrivate, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.seedBinding(pb)
	privCl := NewClient(fx.caller, privL)
	if _, _, err := privCl.Derive("Nope", "", nil, 0, loid.Nil); err == nil || !strings.Contains(err.Error(), "Private") {
		t.Errorf("Private Derive: %v", err)
	}
	if _, _, err := privCl.Create(nil, loid.Nil, loid.Nil); err != nil {
		t.Errorf("Private Create: %v", err)
	}

	// Fixed: InheritFrom is empty.
	fixL, fb, err := fx.root.Derive("FixedChild", "", nil, FlagFixed, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.seedBinding(fb)
	fixCl := NewClient(fx.caller, fixL)
	if _, err := InheritFrom.Call(context.Background(), fixCl.Ref, fx.rootL); err == nil || !strings.Contains(err.Error(), "Fixed") {
		t.Errorf("Fixed InheritFrom: %v", err)
	}
}

func TestDeleteInstance(t *testing.T) {
	fx := newFixture(t)
	l, b, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	fx.caller.AddBinding(b)
	if _, err := Delete.Call(context.Background(), fx.root.Ref, l); err != nil {
		t.Fatal(err)
	}
	// Future binding attempts fail (§3.8: "future attempts to bind the
	// LOID to an Object Address will be unsuccessful").
	if _, err := fx.root.GetBinding(l); err == nil {
		t.Error("GetBinding after Delete succeeded")
	}
	// Stale binding in the caller eventually fails too.
	fx.caller.Retry.MaxAttempts = 1
	res, _ := fx.caller.Call(l, "Echo", []byte("x"))
	if res.Code != wire.ErrNoSuchObject {
		t.Errorf("call after delete: %v", res.Code)
	}
	if _, err := Delete.Call(context.Background(), fx.root.Ref, l); err == nil {
		t.Error("double Delete succeeded")
	}
}

func TestCloneSharesInterface(t *testing.T) {
	fx := newFixture(t)
	clone, err := Clone.Call(context.Background(), fx.root.Ref, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	cloneL, cb := clone.LOID, clone.Binding
	fx.seedBinding(cb)
	cloneCl := NewClient(fx.caller, cloneL)
	// "without changing the interface in any way" (§5.2.2).
	origIfc, _ := GetInstanceInterface.Call(context.Background(), fx.root.Ref)
	cloneIfc, err := GetInstanceInterface.Call(context.Background(), cloneCl.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if !origIfc.Equal(cloneIfc) {
		t.Error("clone interface differs")
	}
	// The clone serves creates; instances carry the clone's class id.
	l, ib, err := cloneCl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.ClassID != cloneL.ClassID {
		t.Errorf("clone instance %v has wrong class", l)
	}
	fx.caller.AddBinding(ib)
	if res, _ := fx.caller.Call(l, "Echo", []byte("c")); res.Code != wire.OK {
		t.Errorf("clone instance call: %v", res.Code)
	}
}

func TestMagistrateHintAndDefaults(t *testing.T) {
	fx := newFixture(t)
	// Clearing defaults makes Create fail without a hint.
	if err := fx.root.SetDefaultMagistrates(nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fx.root.Create(nil, loid.Nil, loid.Nil); err == nil {
		t.Error("Create without magistrates succeeded")
	}
	// An explicit hint still works.
	if _, _, err := fx.root.Create(nil, fx.magL, loid.Nil); err != nil {
		t.Errorf("Create with hint: %v", err)
	}
	fx.root.SetDefaultMagistrates([]loid.LOID{fx.magL})
	if _, _, err := fx.root.Create(nil, loid.Nil, loid.Nil); err != nil {
		t.Errorf("Create after restoring defaults: %v", err)
	}
}

func TestReflectiveRowHooks(t *testing.T) {
	fx := newFixture(t)
	l, _, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	agent := loid.NewNoKey(400, 1)
	if _, err := SetSchedulingAgent.Call(context.Background(), fx.root.Ref, l, agent); err != nil {
		t.Fatal(err)
	}
	cands := []loid.LOID{fx.magL, loid.NewNoKey(loid.ClassIDMagistrate, 9)}
	if _, err := SetCandidateMagistrates.Call(context.Background(), fx.root.Ref, l, cands); err != nil {
		t.Fatal(err)
	}
	row, err := GetRow.Call(context.Background(), fx.root.Ref, l)
	if err != nil {
		t.Fatal(err)
	}
	if !row.SchedulingAgent.SameObject(agent) {
		t.Errorf("scheduling agent = %v", row.SchedulingAgent)
	}
	if len(row.CandidateMagistrates) != 2 {
		t.Errorf("candidates = %v", row.CandidateMagistrates)
	}
	if len(row.CurrentMagistrates) != 1 || !row.CurrentMagistrates[0].SameObject(fx.magL) {
		t.Errorf("current magistrates = %v", row.CurrentMagistrates)
	}
}

func TestClassStateRoundTrip(t *testing.T) {
	fx := newFixture(t)
	fx.root.Create(nil, loid.Nil, loid.Nil)
	sub, sb, _ := fx.root.Derive("Child", "", nil, 0, loid.Nil)
	fx.seedBinding(sb)

	// Snapshot the root class state and rebuild a class impl from it —
	// exactly what activation from an OPR does.
	res, err := fx.caller.Call(fx.rootL, "SaveState")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("SaveState: %v %v", res, err)
	}
	blob, _ := res.Result(0)
	fresh := NewEmptyClassImpl().(*ClassImpl)
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if fresh.Meta().Name != "EchoClass" || fresh.Meta().NextSeq == 0 {
		t.Errorf("restored meta = %+v", fresh.Meta())
	}
	if len(fresh.table) != 2 {
		t.Errorf("restored table has %d rows", len(fresh.table))
	}
	row, ok := fresh.table[sub.Ident()]
	if !ok || !row.IsSubclass {
		t.Error("subclass row lost in state round trip")
	}
	// Corrupt state rejected.
	if err := fresh.RestoreState(blob[:len(blob)-2]); err == nil {
		t.Error("truncated class state accepted")
	}
}

func TestMetaclassStateRoundTrip(t *testing.T) {
	fx := newFixture(t)
	// Allocate some ids and register bindings.
	sub, sb, _ := fx.root.Derive("Persisted", "", nil, 0, loid.Nil)
	fx.seedBinding(sb)
	blob, err := fx.meta.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := NewMetaclass()
	if err := m2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if m2.nextID <= loid.FirstUserClassID {
		t.Errorf("restored nextID = %d", m2.nextID)
	}
	if creator, ok := m2.pairs[sub.ID()]; !ok || !creator.SameObject(fx.rootL) {
		t.Errorf("restored pair = %v, %v", creator, ok)
	}
	if _, ok := m2.bindings[fx.rootL.ID()]; !ok {
		t.Error("restored bindings missing root class")
	}
	if name, ok := m2.ClassName(sub.ClassID); !ok || name != "Persisted" {
		t.Errorf("restored name = %q, %v", name, ok)
	}
	if err := m2.RestoreState(blob[:len(blob)-1]); err == nil {
		t.Error("truncated metaclass state accepted")
	}
}

func TestLocateClassSteps(t *testing.T) {
	fx := newFixture(t)
	mc := fx.caller.To(loid.LegionClass)
	// Direct: the root class is registered with LegionClass.
	loc, err := LocateClass.Call(context.Background(), mc, fx.rootL)
	if err != nil || !loc.Direct || loc.Binding.Address.IsZero() {
		t.Fatalf("LocateClass(root) = %+v, %v", loc, err)
	}
	// Indirect: a derived class resolves through its creator.
	sub, sb, _ := fx.root.Derive("Locatable", "", nil, 0, loid.Nil)
	fx.seedBinding(sb)
	loc, err = LocateClass.Call(context.Background(), mc, sub)
	if err != nil || loc.Direct || !loc.Responsible.SameObject(fx.rootL) {
		t.Fatalf("LocateClass(sub) = %+v, %v", loc, err)
	}
	// Unknown class errors.
	if _, err := LocateClass.Call(context.Background(), mc, loid.NewNoKey(9999, 0)); err == nil {
		t.Error("LocateClass of unknown class succeeded")
	}
	// Non-class LOID rejected.
	if _, err := LocateClass.Call(context.Background(), mc, loid.NewNoKey(100, 5)); err == nil {
		t.Error("LocateClass of instance LOID succeeded")
	}
}

func TestMetaclassIsAbstractAndPrivate(t *testing.T) {
	fx := newFixture(t)
	metaCl := NewClient(fx.caller, loid.LegionClass)
	if _, _, err := metaCl.Create(nil, loid.Nil, loid.Nil); err == nil {
		t.Error("LegionClass.Create succeeded")
	}
	if _, _, err := metaCl.Derive("X", "echo", nil, 0, loid.Nil); err == nil {
		t.Error("LegionClass.Derive succeeded")
	}
}

func TestNewClassIDValidation(t *testing.T) {
	fx := newFixture(t)
	mc := fx.caller.To(loid.LegionClass)
	if _, err := NewClassID.Call(context.Background(), mc, loid.Nil, "x"); err == nil {
		t.Error("NewClassID with nil creator succeeded")
	}
	id1, err := NewClassID.Call(context.Background(), mc, fx.rootL, "a")
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := NewClassID.Call(context.Background(), mc, fx.rootL, "b")
	if id2 <= id1 {
		t.Errorf("ids not increasing: %d, %d", id1, id2)
	}
	if _, err := WhoIsResponsible.Call(context.Background(), mc, loid.NewNoKey(424242, 0)); err == nil {
		t.Error("WhoIsResponsible for unknown class succeeded")
	}
}

func TestFlagsString(t *testing.T) {
	if Flags(0).String() != "none" {
		t.Errorf("Flags(0) = %q", Flags(0).String())
	}
	f := FlagAbstract | FlagPrivate | FlagFixed
	if f.String() != "abstract,private,fixed" {
		t.Errorf("all flags = %q", f.String())
	}
}

func TestMetaValidate(t *testing.T) {
	good := &Meta{
		Self:      loid.NewNoKey(300, 0),
		Name:      "C",
		ImplParts: []string{"impl"},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid meta rejected: %v", err)
	}
	bad := []*Meta{
		{Name: "C", ImplParts: []string{"impl"}},                           // nil self
		{Self: loid.NewNoKey(300, 5), Name: "C", ImplParts: []string{"i"}}, // not a class LOID
		{Self: loid.NewNoKey(300, 0), ImplParts: []string{"impl"}},         // no name
		{Self: loid.NewNoKey(300, 0), Name: "C"},                           // concrete, no impl
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad meta %d accepted", i)
		}
	}
	abstract := &Meta{Self: loid.NewNoKey(300, 0), Name: "A", Flags: FlagAbstract}
	if err := abstract.Validate(); err != nil {
		t.Errorf("abstract without impl rejected: %v", err)
	}
}

// TestRegisterInstanceAndNotifyAddress: RegisterInstance records an
// instance started out-of-band, and one NotifyAddress carries a set: it
// updates every known row and answers an error naming the unknown one.
func TestRegisterInstanceAndNotifyAddress(t *testing.T) {
	fx := newFixture(t)
	// Out-of-band instance registration (§4.2.1 bootstrap path).
	known := []loid.LOID{loid.NewNoKey(100, 900), loid.NewNoKey(100, 902)}
	addr := oa.Single(oa.MemElement(424242))
	for _, l := range known {
		if _, err := RegisterInstance.Call(context.Background(), fx.root.Ref, l, addr); err != nil {
			t.Fatal(err)
		}
	}
	row, err := GetRow.Call(context.Background(), fx.root.Ref, known[0])
	if err != nil || !row.Address.Equal(addr) {
		t.Fatalf("row after RegisterInstance: %+v, %v", row, err)
	}
	// NotifyAddress updates the known rows of its set ...
	unknown := loid.NewNoKey(100, 901)
	addrs := []oa.Address{oa.Single(oa.MemElement(424243)), oa.Single(oa.MemElement(424244))}
	set := []binding.Binding{
		binding.Forever(known[0], addrs[0]),
		binding.Forever(unknown, addrs[0]),
		binding.Forever(known[1], addrs[1]),
	}
	_, err = magistrate.NotifyAddress.Call(context.Background(), fx.root.Ref, set)
	// ... and names the unknown one.
	if err == nil || !strings.Contains(err.Error(), unknown.String()) {
		t.Errorf("NotifyAddress with %v unknown answered %v, want an error naming it", unknown, err)
	}
	for i, l := range known {
		if row, _ := GetRow.Call(context.Background(), fx.root.Ref, l); !row.Address.Equal(addrs[i]) {
			t.Errorf("NotifyAddress left %v at %v, want %v", l, row.Address, addrs[i])
		}
	}
	if _, err := GetRow.Call(context.Background(), fx.root.Ref, unknown); err == nil {
		t.Errorf("NotifyAddress recorded the unknown %v", unknown)
	}
	// GetBinding serves the notified address directly.
	b, err := fx.root.GetBinding(known[0])
	if err != nil || !b.Address.Equal(addrs[0]) {
		t.Errorf("GetBinding = %v, %v", b, err)
	}
}

func TestSetCurrentMagistrates(t *testing.T) {
	fx := newFixture(t)
	l, _, err := fx.root.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	newMags := []loid.LOID{loid.NewNoKey(loid.ClassIDMagistrate, 7)}
	res, err := fx.caller.Call(fx.rootL, "SetCurrentMagistrates",
		wire.LOID(l), wire.LOIDList(newMags))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("SetCurrentMagistrates: %v %v", res, err)
	}
	row, _ := GetRow.Call(context.Background(), fx.root.Ref, l)
	if len(row.CurrentMagistrates) != 1 || !row.CurrentMagistrates[0].SameObject(newMags[0]) {
		t.Errorf("current magistrates = %v", row.CurrentMagistrates)
	}
	// Unknown objects rejected.
	res, _ = fx.caller.Call(fx.rootL, "SetCurrentMagistrates",
		wire.LOID(loid.NewNoKey(100, 999)), wire.LOIDList(newMags))
	if res.Code == wire.OK {
		t.Error("SetCurrentMagistrates for unknown object accepted")
	}
}

func TestClassInterfaceValue(t *testing.T) {
	impl, err := NewClassImpl(&Meta{
		Self: loid.NewNoKey(300, 0), Name: "X", ImplParts: []string{"i"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !impl.Interface().Has("Create") || !impl.Interface().Has("SubscribeAgent") {
		t.Error("class interface incomplete")
	}
	m, _ := NewMetaclass()
	if !m.Interface().Has("NewClassID") || !m.Interface().Has("Derive") {
		t.Error("metaclass interface incomplete")
	}
}
