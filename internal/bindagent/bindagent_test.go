package bindagent

import (
	"context"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fixture assembles the minimal §4.1 cast: LegionClass, one user
// class with a magistrate+host underneath, and a configurable agent
// arrangement.
type fixture struct {
	t      *testing.T
	fabric *transport.Fabric
	reg    *metrics.Registry
	impls  *implreg.Registry

	legionClassAddr oa.Address
	meta            *class.Metaclass

	magL  loid.LOID
	rootL loid.LOID
	root  *class.Client

	caller *rt.Caller
}

func pingFactory() rt.Impl {
	return &rt.Behavior{
		Iface: idl.NewInterface("Pong", idl.MethodSig{Name: "Pong"}),
		Handlers: map[string]rt.Handler{
			"Pong": func(inv *rt.Invocation) ([][]byte, error) { return nil, nil },
		},
	}
}

func (fx *fixture) node(name string) *rt.Node {
	n, err := rt.NewNode(fx.fabric, fx.reg, name)
	if err != nil {
		fx.t.Fatal(err)
	}
	fx.t.Cleanup(func() { n.Close() })
	return n
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	fx := &fixture{
		t:      t,
		reg:    metrics.NewRegistry(),
		impls:  implreg.NewRegistry(),
		fabric: nil,
	}
	fx.fabric = transport.NewFabric(fx.reg)
	t.Cleanup(func() { fx.fabric.Close() })
	fx.impls.MustRegister("pong", pingFactory)
	fx.impls.MustRegisterConcurrent(class.ImplName, class.NewEmptyClassImpl)

	// LegionClass.
	metaNode := fx.node("legionclass")
	var err error
	fx.meta, err = class.NewMetaclass()
	if err != nil {
		t.Fatal(err)
	}
	metaCaller := rt.NewCaller(metaNode, loid.LegionClass, nil)
	metaCaller.Timeout = 3 * time.Second
	if _, err := metaNode.Spawn(loid.LegionClass, fx.meta,
		rt.WithCaller(metaCaller), rt.WithLabel("class/LegionClass"),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	fx.legionClassAddr = metaNode.Address()

	// Client caller (no resolver yet; tests wire agents in).
	clientNode := fx.node("client")
	fx.caller = rt.NewCaller(clientNode, loid.NewNoKey(300, 1), nil)
	fx.caller.Timeout = 3 * time.Second
	fx.caller.AddBinding(binding.Forever(loid.LegionClass, fx.legionClassAddr))

	// Internal agent used as the resolver for objects started on the
	// fixture host (class objects created via Derive need to reach
	// LegionClass and magistrates by LOID).
	infraNode := fx.node("infra-agent")
	infraL := loid.NewNoKey(loid.ClassIDBindingAgent, 1000)
	infraAgent := New(infraL, 0, fx.legionClassAddr)
	infraCaller := rt.NewCaller(infraNode, infraL, nil)
	infraCaller.Timeout = 3 * time.Second
	if _, err := infraNode.Spawn(infraL, infraAgent,
		rt.WithCaller(infraCaller), rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	infraAddr := infraNode.Address()

	// Host + magistrate.
	hostNode := fx.node("host")
	hl := loid.NewNoKey(loid.ClassIDLegionHost, 1)
	resFactory := func(self loid.LOID) rt.Resolver {
		c := rt.NewCaller(hostNode, self, nil)
		c.Timeout = 3 * time.Second
		return NewClient(c, infraL, infraAddr)
	}
	hobj := host.New(hl, hostNode, fx.impls, resFactory)
	hostCaller := rt.NewCaller(hostNode, hl, nil)
	hostCaller.Timeout = 3 * time.Second
	if _, err := hostNode.Spawn(hl, hobj, rt.WithCaller(hostCaller),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	magNode := fx.node("mag")
	fx.magL = loid.NewNoKey(loid.ClassIDMagistrate, 1)
	mag := magistrate.New(fx.magL, persist.NewMemStore())
	magCaller := rt.NewCaller(magNode, fx.magL, nil)
	magCaller.Timeout = 3 * time.Second
	if _, err := magNode.Spawn(fx.magL, mag, rt.WithCaller(magCaller),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	if _, err := magistrate.AddHost.Call(context.Background(), fx.caller.To(addBound(fx.caller, fx.magL, magNode.Address())), hl, hostNode.Address()); err != nil {
		t.Fatal(err)
	}

	// LegionMagistrate class, so agents can resolve magistrate LOIDs
	// for objects spawned on the host.
	lmNode := fx.node("class-LegionMagistrate")
	lmImpl, err := class.NewClassImpl(&class.Meta{
		Self:  loid.New(loid.ClassIDMagistrate, 0, loid.DeriveKey("class/LegionMagistrate")),
		Name:  "LegionMagistrate",
		Super: loid.LegionObject,
		Flags: class.FlagAbstract,
	})
	if err != nil {
		t.Fatal(err)
	}
	lmCaller := rt.NewCaller(lmNode, loid.LegionMagistrate, nil)
	lmCaller.Timeout = 3 * time.Second
	if _, err := lmNode.Spawn(loid.LegionMagistrate, lmImpl,
		rt.WithCaller(lmCaller), rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	if _, err := class.RegisterClassBinding.Call(context.Background(), fx.caller.To(loid.LegionClass), loid.LegionMagistrate, lmNode.Address()); err != nil {
		t.Fatal(err)
	}
	lmClient := class.NewClient(fx.caller, addBound(fx.caller, loid.LegionMagistrate, lmNode.Address()))
	if _, err := class.RegisterInstance.Call(context.Background(), lmClient.Ref, fx.magL, magNode.Address()); err != nil {
		t.Fatal(err)
	}

	// Root class with working Create machinery.
	rootNode := fx.node("rootclass")
	fx.rootL = loid.New(100, 0, loid.DeriveKey("class/PongClass"))
	rootImpl, err := class.NewClassImpl(&class.Meta{
		Self:               fx.rootL,
		Name:               "PongClass",
		Super:              loid.LegionObject,
		ImplParts:          []string{"pong"},
		InstanceInterface:  pingFactory().Interface(),
		DefaultMagistrates: []loid.LOID{fx.magL},
	})
	if err != nil {
		t.Fatal(err)
	}
	rootCaller := rt.NewCaller(rootNode, fx.rootL, nil)
	rootCaller.Timeout = 3 * time.Second
	rootCaller.AddBinding(binding.Forever(loid.LegionClass, fx.legionClassAddr))
	rootCaller.AddBinding(binding.Forever(fx.magL, magNode.Address()))
	if _, err := rootNode.Spawn(fx.rootL, rootImpl,
		rt.WithCaller(rootCaller), rt.WithLabel("class/PongClass"),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		t.Fatal(err)
	}
	fx.root = class.NewClient(fx.caller, addBound(fx.caller, fx.rootL, rootNode.Address()))
	if _, err := class.RegisterClassBinding.Call(context.Background(), fx.caller.To(loid.LegionClass), fx.rootL, rootNode.Address()); err != nil {
		t.Fatal(err)
	}
	return fx
}

func addBound(c *rt.Caller, l loid.LOID, addr oa.Address) loid.LOID {
	c.AddBinding(binding.Forever(l, addr))
	return l
}

// newAgent spawns an agent on its own node and returns it with its
// client handle.
func (fx *fixture) newAgent(name string, seq uint64, cacheSize int) (*Agent, *Client, oa.Address) {
	node := fx.node(name)
	al := loid.NewNoKey(loid.ClassIDBindingAgent, seq)
	agent := New(al, cacheSize, fx.legionClassAddr)
	caller := rt.NewCaller(node, al, nil)
	caller.Timeout = 3 * time.Second
	if _, err := node.Spawn(al, agent,
		rt.WithCaller(caller), rt.WithLabel("bindagent/"+name),
		rt.WithConcurrency(host.ServiceConcurrency)); err != nil {
		fx.t.Fatal(err)
	}
	return agent, NewClient(fx.caller, al, node.Address()), node.Address()
}

func TestAgentResolvesInstance(t *testing.T) {
	fx := newFixture(t)
	_, ac, _ := fx.newAgent("a", 1, 0)
	obj, want, err := fx.root.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ac.Resolve(obj)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Address.Equal(want.Address) {
		t.Errorf("Resolve = %v, want %v", got, want)
	}
}

func TestAgentCachesBindings(t *testing.T) {
	fx := newFixture(t)
	agent, ac, _ := fx.newAgent("a", 1, 0)
	obj, _, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	classReqsBefore := fx.reg.Counter("req/class/PongClass").Value()
	for i := 0; i < 5; i++ {
		if _, err := ac.Resolve(obj); err != nil {
			t.Fatal(err)
		}
	}
	classReqs := fx.reg.Counter("req/class/PongClass").Value() - classReqsBefore
	if classReqs > 1 {
		t.Errorf("class consulted %d times for 5 agent resolves, want 1", classReqs)
	}
	st := agent.Cache().Stats()
	if st.Hits < 4 {
		t.Errorf("agent cache hits = %d", st.Hits)
	}
}

func TestAgentResolvesClassObjectItself(t *testing.T) {
	fx := newFixture(t)
	_, ac, _ := fx.newAgent("a", 1, 0)
	b, err := ac.Resolve(fx.rootL)
	if err != nil || b.Address.IsZero() {
		t.Fatalf("Resolve(class) = %v, %v", b, err)
	}
	// And LegionClass resolves trivially.
	b, err = ac.Resolve(loid.LegionClass)
	if err != nil || !b.Address.Equal(oa.Single(fx.legionClassAddr.Primary())) && b.Address.IsZero() {
		if err != nil {
			t.Fatalf("Resolve(LegionClass): %v", err)
		}
	}
}

func TestAgentWalksResponsibilityChain(t *testing.T) {
	fx := newFixture(t)
	_, ac, _ := fx.newAgent("a", 1, 0)
	// Chain: PongClass -> Mid -> Leaf; instance of Leaf.
	midL, mb, err := fx.root.Derive("Mid", "", nil, 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(mb)
	mid := class.NewClient(fx.caller, midL)
	leafL, lb, err := mid.Derive("Leaf", "", nil, 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(lb)
	leaf := class.NewClient(fx.caller, leafL)
	obj, _, err := leaf.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	// Cold agent resolve: needs LegionClass pairs for Leaf and Mid.
	b, err := ac.Resolve(obj)
	if err != nil || b.Address.IsZero() {
		t.Fatalf("chain resolve: %v, %v", b, err)
	}
	// Second resolve of another instance: pair cache makes it cheap.
	lcBefore := fx.reg.Counter("req/class/LegionClass").Value()
	obj2, _, _ := leaf.Create(nil, loid.Nil, loid.Nil)
	if _, err := ac.Resolve(obj2); err != nil {
		t.Fatal(err)
	}
	lcDelta := fx.reg.Counter("req/class/LegionClass").Value() - lcBefore
	// Derive/Create contact LegionClass once for ids; the agent itself
	// should add nothing (warm pair + class-binding caches).
	if lcDelta > 2 {
		t.Errorf("LegionClass consulted %d times on warm resolve", lcDelta)
	}
}

func TestAgentRefreshAfterDeactivate(t *testing.T) {
	fx := newFixture(t)
	_, ac, _ := fx.newAgent("a", 1, 0)
	obj, stale, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	if _, err := ac.Resolve(obj); err != nil {
		t.Fatal(err)
	}
	if err := magistrate.NewClient(fx.caller, fx.magL).Deactivate(obj); err != nil {
		t.Fatal(err)
	}
	// Refresh must not serve the stale cached binding; it must reach
	// the class's RefreshBinding and reactivate.
	fresh, err := ac.Refresh(stale)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(fresh)
	res, err := fx.caller.Call(obj, "Pong")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Pong after refresh: %v %v", res, err)
	}
}

func TestAgentTreeForwardsToParent(t *testing.T) {
	fx := newFixture(t)
	_, rootAC, rootAddr := fx.newAgent("root", 1, 0)
	leafAgent, leafAC, _ := fx.newAgent("leaf", 2, 0)
	leafAgent.SetParent(loid.NewNoKey(loid.ClassIDBindingAgent, 1), rootAddr)

	obj, _, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	if _, err := leafAC.Resolve(obj); err != nil {
		t.Fatal(err)
	}
	// The leaf's miss went to the root agent, not to the class path:
	// the root agent now has it cached.
	hits, _, err := rootAC.CacheStats()
	_ = hits
	if err != nil {
		t.Fatal(err)
	}
	if fx.reg.Counter("req/bindagent/root").Value() == 0 {
		t.Error("root agent never consulted by leaf")
	}
	// Second leaf resolve: served from leaf cache, root untouched.
	before := fx.reg.Counter("req/bindagent/root").Value()
	if _, err := leafAC.Resolve(obj); err != nil {
		t.Fatal(err)
	}
	if fx.reg.Counter("req/bindagent/root").Value() != before {
		t.Error("warm leaf resolve still hit the root")
	}
}

func TestAgentTreeRefreshPropagates(t *testing.T) {
	fx := newFixture(t)
	_, _, rootAddr := fx.newAgent("root", 1, 0)
	leafAgent, leafAC, _ := fx.newAgent("leaf", 2, 0)
	leafAgent.SetParent(loid.NewNoKey(loid.ClassIDBindingAgent, 1), rootAddr)

	obj, stale, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	leafAC.Resolve(obj)
	magistrate.NewClient(fx.caller, fx.magL).Deactivate(obj)
	fresh, err := leafAC.Refresh(stale)
	if err != nil {
		t.Fatal(err)
	}
	fx.caller.AddBinding(fresh)
	if res, err := fx.caller.Call(obj, "Pong"); err != nil || res.Code != wire.OK {
		t.Fatalf("Pong after tree refresh: %v %v", res, err)
	}
}

// TestAgentPushesAreSets: a class's news reaches an agent as sets. One
// AddBinding of k bindings fills k cache entries, and one InvalidateLOID
// of k LOIDs drops them all.
func TestAgentPushesAreSets(t *testing.T) {
	fx := newFixture(t)
	agent, ac, _ := fx.newAgent("a", 1, 0)
	const k = 32
	bs := make([]binding.Binding, k)
	ls := make([]loid.LOID, k)
	for i := range bs {
		ls[i] = loid.NewNoKey(100, uint64(i+1))
		bs[i] = binding.Forever(ls[i], oa.Single(oa.MemElement(uint64(4000+i))))
	}
	if _, err := class.AddBinding.Call(context.Background(), ac.Ref(), bs); err != nil {
		t.Fatal(err)
	}
	if n := agent.Cache().Len(); n != k {
		t.Errorf("one AddBinding of %d bindings left %d cache entries, want %d", k, n, k)
	}
	for _, b := range bs {
		if got, ok := agent.Cache().Get(b.LOID); !ok || !got.Address.Equal(b.Address) {
			t.Errorf("cache holds %v, %v for %v, want %v", got, ok, b.LOID, b.Address)
		}
	}
	if _, err := class.InvalidateLOID.Call(context.Background(), ac.Ref(), ls); err != nil {
		t.Fatal(err)
	}
	if n := agent.Cache().Len(); n != 0 {
		t.Errorf("one InvalidateLOID of %d LOIDs left %d cache entries, want 0", k, n)
	}
}

func TestAgentExplicitCacheManagement(t *testing.T) {
	fx := newFixture(t)
	agent, ac, _ := fx.newAgent("a", 1, 0)
	obj := loid.NewNoKey(100, 77)
	b := binding.Forever(obj, oa.Single(oa.MemElement(4242)))
	if _, err := class.AddBinding.Call(context.Background(), ac.Ref(), []binding.Binding{b}); err != nil {
		t.Fatal(err)
	}
	got, err := ac.Resolve(obj)
	if err != nil || !got.Address.Equal(b.Address) {
		t.Fatalf("Resolve after AddBinding: %v %v", got, err)
	}
	// InvalidateBinding with a non-matching binding leaves the entry.
	other := binding.Forever(obj, oa.Single(oa.MemElement(1)))
	_, _ = InvalidateBinding.Call(context.Background(), ac.Ref(), other)
	if _, ok := agent.Cache().Get(obj); !ok {
		t.Error("non-matching InvalidateBinding removed entry")
	}
	_, _ = InvalidateBinding.Call(context.Background(), ac.Ref(), b)
	if _, ok := agent.Cache().Get(obj); ok {
		t.Error("InvalidateBinding left matching entry")
	}
	_, _ = class.AddBinding.Call(context.Background(), ac.Ref(), []binding.Binding{b})
	ac.InvalidateLOID(obj)
	if _, ok := agent.Cache().Get(obj); ok {
		t.Error("InvalidateLOID left entry")
	}
}

func TestAgentUnknownTarget(t *testing.T) {
	fx := newFixture(t)
	_, ac, _ := fx.newAgent("a", 1, 0)
	if _, err := ac.Resolve(loid.NewNoKey(100, 424242)); err == nil {
		t.Error("Resolve of unknown instance succeeded")
	}
	if _, err := ac.Resolve(loid.NewNoKey(987654, 3)); err == nil {
		t.Error("Resolve with unknown class succeeded")
	}
}

func TestAgentStateRoundTrip(t *testing.T) {
	fx := newFixture(t)
	agent, _, _ := fx.newAgent("a", 1, 0)
	parent := loid.NewNoKey(loid.ClassIDBindingAgent, 9)
	parentAddr := oa.Single(oa.MemElement(99))
	agent.SetParent(parent, parentAddr)
	blob, err := agent.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(loid.NewNoKey(loid.ClassIDBindingAgent, 2), 0, oa.Address{})
	if err := a2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if !a2.parent.SameObject(parent) || !a2.parentAddr.Equal(parentAddr) {
		t.Errorf("restored parent = %v @ %v", a2.parent, a2.parentAddr)
	}
	if !a2.legionClassAddr.Equal(fx.legionClassAddr) {
		t.Error("restored LegionClass address differs")
	}
	if err := a2.RestoreState(blob[:len(blob)-1]); err == nil {
		t.Error("truncated agent state accepted")
	}
	if err := a2.RestoreState(nil); err != nil {
		t.Error("empty agent state rejected")
	}
}

func TestAgentCacheStatsOverWire(t *testing.T) {
	fx := newFixture(t)
	_, ac, _ := fx.newAgent("a", 1, 0)
	obj, _, _ := fx.root.Create(nil, loid.Nil, loid.Nil)
	ac.Resolve(obj) // miss
	ac.Resolve(obj) // hit
	hits, misses, err := ac.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("stats = %d/%d, want both nonzero", hits, misses)
	}
}

func TestAgentLRUBoundedCache(t *testing.T) {
	fx := newFixture(t)
	agent, ac, _ := fx.newAgent("a", 1, 2) // tiny cache
	var objs []loid.LOID
	for i := 0; i < 4; i++ {
		obj, _, err := fx.root.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		if _, err := ac.Resolve(obj); err != nil {
			t.Fatal(err)
		}
	}
	if agent.Cache().Len() > 2 {
		t.Errorf("cache len = %d, capacity 2", agent.Cache().Len())
	}
	if agent.Cache().Stats().Evictions == 0 {
		t.Error("no evictions with over-capacity inserts")
	}
	// Evicted entries still resolve (through the class), just slower.
	if _, err := ac.Resolve(objs[0]); err != nil {
		t.Errorf("evicted entry failed to re-resolve: %v", err)
	}
}
