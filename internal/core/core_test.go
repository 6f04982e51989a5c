package core

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bindagent"
	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/rt"
	"repro/internal/wire"
)

func counterFactory() rt.Impl {
	var n uint64
	return &rt.Behavior{
		Iface: counterInterface(),
		Handlers: map[string]rt.Handler{
			"Inc": func(inv *rt.Invocation) ([][]byte, error) {
				n++
				return [][]byte{wire.Uint64(n)}, nil
			},
			"Get": func(inv *rt.Invocation) ([][]byte, error) {
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

func counterInterface() *idl.Interface {
	return idl.NewInterface("Counter",
		idl.MethodSig{Name: "Inc", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}},
		idl.MethodSig{Name: "Get", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}},
	)
}

func bootSys(t *testing.T, opts Options) *System {
	t.Helper()
	if opts.Impls == nil {
		opts.Impls = implreg.NewRegistry()
	}
	if !opts.Impls.Has("counter") {
		opts.Impls.MustRegister("counter", counterFactory)
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = 5 * time.Second
	}
	sys, err := Boot(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestBootDefaults(t *testing.T) {
	sys := bootSys(t, Options{})
	if len(sys.Jurisdictions) != 1 || len(sys.Jurisdictions[0].Hosts) != 1 {
		t.Fatalf("default topology: %d jurisdictions", len(sys.Jurisdictions))
	}
	if len(sys.Leaves) != 1 {
		t.Fatalf("default agents: %d", len(sys.Leaves))
	}
	// All five core classes are registered and locatable.
	meta := sys.BootClient().To(loid.LegionClass)
	for _, cc := range loid.CoreClasses() {
		loc, err := class.LocateClass.Call(context.Background(), meta, cc)
		if err != nil || !loc.Direct || loc.Binding.Address.IsZero() {
			t.Errorf("LocateClass(%v) = %+v, %v", cc, loc, err)
		}
	}
}

func TestDeriveAndCreateThroughFullStack(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, clsL, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if clsL.ClassID < loid.FirstUserClassID {
		t.Errorf("class id %d", clsL.ClassID)
	}
	// Named in the local context.
	if got, err := sys.Names.Lookup("/classes/Counter"); err != nil || got != clsL {
		t.Errorf("context lookup: %v, %v", got, err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	// A completely fresh client — empty cache, resolver via agent —
	// must reach the instance by LOID alone: the full §4.1 path.
	user, err := sys.NewClient(loid.NewNoKey(300, 42))
	if err != nil {
		t.Fatal(err)
	}
	res, err := user.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Inc via full binding path: %v %v", res, err)
	}
}

func TestBindingPathCachesAtEachLevel(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	// First call: full path. Subsequent calls: local cache.
	for i := 0; i < 10; i++ {
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("call %d: %v %v", i, res, err)
		}
	}
	st := user.Cache().Stats()
	if st.Hits < 9 {
		t.Errorf("local cache hits = %d, want >= 9", st.Hits)
	}
	// The agent served at most the first lookup.
	leaf := sys.Leaves[0]
	agentReqs := sys.Reg.Counter("req/bindagent/leaf0").Value()
	if agentReqs > 6 { // a few lookups during create/derive are fine
		t.Errorf("agent requests = %d, want O(1) not O(calls)", agentReqs)
	}
	_ = leaf
}

func TestAgentResolvesClassRecursively(t *testing.T) {
	sys := bootSys(t, Options{})
	// Build a chain: LegionObject -> A -> B -> C, then create an
	// instance of C and resolve it from a cold client. The agent must
	// walk responsibility pairs A, B back to LegionClass (§4.1.3).
	clA, _, err := sys.DeriveClass("A", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bL, bb, err := clA.Derive("B", "", nil, 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.BootClient().AddBinding(bb)
	clB := class.NewClient(sys.BootClient(), bL)
	cL, cb, err := clB.Derive("C", "", nil, 0, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.BootClient().AddBinding(cb)
	clC := class.NewClient(sys.BootClient(), cL)
	obj, _, err := clC.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 7))
	res, err := user.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("deep-chain resolution: %v %v", res, err)
	}
}

func TestStaleBindingHealsThroughAgent(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
		t.Fatalf("warm-up: %v %v", res, err)
	}
	// Deactivate the object behind everyone's back. All caches now
	// hold stale bindings.
	mcl := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if err := mcl.Deactivate(obj); err != nil {
		t.Fatal(err)
	}
	// The next call hits the stale address, gets ErrNoSuchObject,
	// refreshes through agent -> class -> magistrate -> reactivation.
	res, err := user.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after deactivation: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 2 {
		t.Errorf("counter = %d, want 2 (state survived deactivation)", v)
	}
}

func TestMultiJurisdictionMigration(t *testing.T) {
	sys := bootSys(t, Options{Jurisdictions: 2, HostsPerJurisdiction: 1})
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	obj, _, err := cl.Create(nil, sys.Jurisdictions[0].Magistrate, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	user.Call(obj, "Inc")

	// Move the object from jurisdiction 0 to jurisdiction 1.
	src := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if _, err := magistrate.Move.Call(context.Background(), src.Ref, obj, sys.Jurisdictions[1].Magistrate); err != nil {
		t.Fatal(err)
	}
	// Update the class's view (the mover's duty): new magistrate list.
	if _, err := class.SetCandidateMagistrates.Call(context.Background(), cl.Ref, obj, []loid.LOID{sys.Jurisdictions[1].Magistrate}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.BootClient().Call(cl.Class(), "SetCurrentMagistrates",
		wire.LOID(obj), wire.LOIDList([]loid.LOID{sys.Jurisdictions[1].Magistrate}))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("SetCurrentMagistrates: %v %v", res, err)
	}
	if _, err := class.NotifyDeactivated.Call(context.Background(), cl.Ref, obj); err != nil {
		t.Fatal(err)
	}
	// The user's next call heals through the agent and reactivates in
	// jurisdiction 1 with state intact.
	res, err = user.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after migration: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 2 {
		t.Errorf("counter = %d after migration, want 2", v)
	}
	// And it actually runs in jurisdiction 1 now.
	st, err := magistrate.HasObject.Call(context.Background(), sys.BootClient().To(sys.Jurisdictions[1].Magistrate), obj)
	if err != nil || !st.Known || !st.Active {
		t.Errorf("destination HasObject = %+v, %v", st, err)
	}
}

func TestAgentTreeReducesLegionClassLoad(t *testing.T) {
	// Flat agents: every leaf asks LegionClass. Tree: only the root
	// does (§5.2.2: the combining tree "arbitrarily reduces the load
	// placed on LegionClass").
	countLC := func(fanout int) uint64 {
		impls := implreg.NewRegistry()
		impls.MustRegister("counter", counterFactory)
		sys := bootSys(t, Options{LeafAgents: 4, AgentFanout: fanout, Impls: impls})
		cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
		obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		before := sys.Reg.Counter("req/class/LegionClass").Value()
		// Four cold clients, one per leaf, all resolving the same LOID.
		for i := 0; i < 4; i++ {
			user, _ := sys.NewClient(loid.NewNoKey(300, uint64(i+1)))
			if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
				t.Fatalf("client %d: %v %v", i, res, err)
			}
		}
		return sys.Reg.Counter("req/class/LegionClass").Value() - before
	}
	flat := countLC(0)
	tree := countLC(4)
	if tree >= flat {
		t.Errorf("LegionClass load: flat=%d tree=%d, want tree < flat", flat, tree)
	}
}

func TestHostAndMagistrateAnnouncedToClasses(t *testing.T) {
	sys := bootSys(t, Options{Jurisdictions: 2, HostsPerJurisdiction: 2})
	hc := class.NewClient(sys.BootClient(), loid.LegionHost)
	info, err := class.Info.Call(context.Background(), hc.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if info.Instances != 4 {
		t.Errorf("LegionHost instances = %d, want 4", info.Instances)
	}
	mcl := class.NewClient(sys.BootClient(), loid.LegionMagistrate)
	info, err = class.Info.Call(context.Background(), mcl.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if info.Instances != 2 {
		t.Errorf("LegionMagistrate instances = %d, want 2", info.Instances)
	}
	// Host objects are resolvable by LOID through the agent, like any
	// object (their class answers for them).
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	st, err := host.GetState.Call(context.Background(), user.To(sys.Jurisdictions[1].Hosts[1]))
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects == 0 {
		// jurisdiction 1's hosts run nothing yet; Objects may be 0 —
		// the call succeeding is the point.
		t.Logf("host state: %+v", st)
	}
}

func TestSecurityAcrossFullStack(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	obj, b, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find the live object and install an ACL on it.
	var target *rt.Object
	for _, j := range sys.Jurisdictions {
		_ = j
	}
	for _, n := range sys.nodes {
		if o, ok := n.Lookup(obj); ok {
			target = o
			break
		}
	}
	if target == nil {
		t.Fatal("created object not found on any node")
	}
	alice := loid.New(300, 1, loid.DeriveKey("alice"))
	mallory := loid.New(300, 2, loid.DeriveKey("mallory"))
	acl := newACLAllowing(alice, "Inc")
	target.SetPolicy(acl)

	ac, _ := sys.NewClient(alice)
	ac.AddBinding(b)
	if res, _ := ac.Call(obj, "Inc"); res.Code != wire.OK {
		t.Errorf("alice denied: %v", res.Code)
	}
	mc, _ := sys.NewClient(mallory)
	mc.AddBinding(b)
	if res, _ := mc.Call(obj, "Inc"); res.Code != wire.ErrDenied {
		t.Errorf("mallory allowed: %v", res.Code)
	}
}

func TestAgentClientResolverInterface(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	node, err := sys.proc().newNode("probe")
	if err != nil {
		t.Fatal(err)
	}
	caller := rt.NewCaller(node, loid.NewNoKey(300, 9), nil)
	caller.Timeout = 5 * time.Second
	leaf := sys.Leaves[0]
	ac := bindagent.NewClient(caller, leaf.LOID, leaf.Addr)
	b, err := ac.Resolve(obj)
	if err != nil || b.Address.IsZero() {
		t.Fatalf("Resolve: %v %v", b, err)
	}
	// Propagate + stats round trip.
	if _, err := class.AddBinding.Call(context.Background(), ac.Ref(), []binding.Binding{b}); err != nil {
		t.Fatal(err)
	}
	hits, misses, err := ac.CacheStats()
	if err != nil {
		t.Fatal(err)
	}
	if hits+misses == 0 {
		t.Error("agent stats empty after resolution")
	}
	if err := ac.InvalidateLOID(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := bindagent.InvalidateBinding.Call(context.Background(), ac.Ref(), b); err != nil {
		t.Fatal(err)
	}
	// Refresh still produces a working binding.
	nb, err := ac.Refresh(b)
	if err != nil || nb.Address.IsZero() {
		t.Fatalf("Refresh: %v %v", nb, err)
	}
}

func TestBootWithManyJurisdictionsAndAgents(t *testing.T) {
	sys := bootSys(t, Options{Jurisdictions: 3, HostsPerJurisdiction: 2, LeafAgents: 4, AgentFanout: 2})
	// Tree: 4 leaves + 2 internal + 1 root = 7.
	if len(sys.Agents) != 7 {
		t.Errorf("agent count = %d, want 7", len(sys.Agents))
	}
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Create across all jurisdictions via class round-robin after
	// giving the class all magistrates.
	var mags []loid.LOID
	for _, j := range sys.Jurisdictions {
		mags = append(mags, j.Magistrate)
	}
	if err := cl.SetDefaultMagistrates(mags); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		user, _ := sys.NewClient(loid.NewNoKey(300, uint64(100+i)))
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("object %d: %v %v", i, res, err)
		}
	}
	// Round-robin spread objects over all three jurisdictions.
	for jIdx, j := range sys.Jurisdictions {
		ls, err := magistrate.NewClient(sys.BootClient(), j.Magistrate).ListObjects()
		if err != nil {
			t.Fatal(err)
		}
		if len(ls) == 0 {
			t.Errorf("jurisdiction %d got no objects", jIdx)
		}
	}
}

func TestCloneRelievesHotClass(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, clsL, _ := sys.DeriveClass("Hot", "counter", counterInterface(), 0)
	made, err := class.Clone.Call(context.Background(), cl.Ref, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.BootClient().AddBinding(made.Binding)
	clone := class.NewClient(sys.BootClient(), made.LOID)
	before := sys.Reg.Counter("req/obj/" + clsL.ID().String()).Value()
	for i := 0; i < 5; i++ {
		if _, _, err := clone.Create(nil, loid.Nil, loid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	after := sys.Reg.Counter("req/obj/" + clsL.ID().String()).Value()
	if after != before {
		t.Errorf("original class served %d requests during clone creates", after-before)
	}
}

// newACLAllowing builds an ACL policy granting caller the methods.
func newACLAllowing(caller loid.LOID, methods ...string) rtPolicy {
	return rtPolicy{caller: caller, methods: methods}
}

type rtPolicy struct {
	caller  loid.LOID
	methods []string
}

func (p rtPolicy) MayI(env wire.Env, method string) error {
	if env.Calling.SameObject(p.caller) {
		for _, m := range p.methods {
			if m == method {
				return nil
			}
		}
	}
	return &deniedError{method: method}
}

func (p rtPolicy) Name() string { return "test-acl" }

type deniedError struct{ method string }

func (e *deniedError) Error() string { return "denied: " + e.method }

func TestDeriveUnknownImplFailsAtActivation(t *testing.T) {
	sys := bootSys(t, Options{})
	_, _, err := sys.DeriveClass("Ghost", "no-such-impl", nil, 0)
	// Derive succeeds structurally or fails at creation; creating an
	// instance must fail because no host can instantiate the impl.
	if err != nil {
		if !strings.Contains(err.Error(), "") {
			t.Fatal(err)
		}
		return
	}
	cl := class.NewClient(sys.BootClient(), mustLookup(t, sys, "/classes/Ghost"))
	if _, _, err := cl.Create(nil, loid.Nil, loid.Nil); err == nil {
		t.Error("Create with unknown impl succeeded")
	}
}

func mustLookup(t *testing.T, sys *System, path string) loid.LOID {
	t.Helper()
	l, err := sys.Names.Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCoResidentCallBypassesFabric proves the co-resident bypass:
// a caller on the same node as a concurrency-safe object invokes it
// without a single frame crossing the fabric — no marshal, no
// correlation id, no net/sent traffic. A caller on a different node
// making the same call does use the fabric (sanity leg).
func TestCoResidentCallBypassesFabric(t *testing.T) {
	impls := implreg.NewRegistry()
	impls.MustRegisterConcurrent("atomic-counter", func() rt.Impl {
		var n atomic.Uint64
		return &rt.Behavior{
			Iface: counterInterface(),
			Handlers: map[string]rt.Handler{
				"Inc": func(inv *rt.Invocation) ([][]byte, error) {
					return [][]byte{wire.Uint64(n.Add(1))}, nil
				},
				"Get": func(inv *rt.Invocation) ([][]byte, error) {
					return [][]byte{wire.Uint64(n.Load())}, nil
				},
			},
		}
	})
	sys := bootSys(t, Options{Impls: impls})
	cl, _, err := sys.DeriveClass("AtomicCounter", "atomic-counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, objB, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	// Default topology: one jurisdiction, one host — the instance is
	// resident on that host's node.
	h := sys.Jurisdictions[0].HostImpls()[0]
	local := rt.NewCaller(h.Node(), loid.NewNoKey(300, 7), nil)
	local.AddBinding(objB)
	before := sys.Reg.Counter("net/sent").Value()
	for i := 0; i < 5; i++ {
		res, err := local.Call(obj, "Inc")
		if err != nil || res.Code != wire.OK {
			t.Fatalf("co-resident Inc %d: %v %v", i, res, err)
		}
	}
	if got := sys.Reg.Counter("net/sent").Value(); got != before {
		t.Errorf("co-resident calls sent %d fabric frames, want 0", got-before)
	}
	// Sanity: the same calls from a non-resident node do cross the
	// fabric, and both callers observe the same object state.
	remote, err := sys.NewClient(loid.NewNoKey(300, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := remote.Call(obj, "Get")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("remote Get: %v %v", res, err)
	}
	if v, _ := wire.AsUint64(res.Results[0]); v != 5 {
		t.Errorf("remote Get = %d, want 5 (bypassed calls must mutate the same object)", v)
	}
	if got := sys.Reg.Counter("net/sent").Value(); got == before {
		t.Error("remote call crossed no fabric frames; counter is not wired")
	}
}
