// Package bindagent implements Legion Binding Agents (§3.6, §4.1): the
// objects that act on behalf of other Legion objects to bind LOIDs to
// Object Addresses. A Binding Agent maintains a cache of bindings and a
// cache of responsibility pairs; on a miss it either asks its parent
// agent — agents "may be organized in a hierarchy to allow the binding
// process to scale", the k-ary software combining tree of §5.2.2 — or
// walks the class path: locate the responsible class via LegionClass
// (§4.1.3, recursively) and ask the class for the object's binding,
// which may activate an Inert object.
package bindagent

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// The Binding Agent's remote methods (§3.6). The two overloads of
// GetBinding and InvalidateBinding are distinct wire methods, since the
// wire protocol dispatches on method name. AddBinding and
// InvalidateLOID, which classes push, are declared with their sender in
// package class.
var (
	GetBinding        = rt.M1("GetBinding", rt.LOIDParam("target"), rt.BindingParam("b"))
	RebindStale       = rt.M1("RebindStale", rt.BindingParam("stale"), rt.BindingParam("b"))
	InvalidateBinding = rt.M1("InvalidateBinding", rt.BindingParam("b"), rt.None)
	CacheStats        = rt.M0("CacheStats", rt.Struct(
		rt.Field(rt.Uint64Param("hits"), func(s *Stats) *uint64 { return &s.Hits }),
		rt.Field(rt.Uint64Param("misses"), func(s *Stats) *uint64 { return &s.Misses })))
)

// Stats is an agent's cache hit and miss counts (CacheStats); expired
// entries count as misses.
type Stats struct{ Hits, Misses uint64 }

var server = rt.NewServer("LegionBindingAgent",
	rt.Serve1(GetBinding, (*Agent).getBinding),
	rt.Serve1(RebindStale, (*Agent).rebindStale),
	rt.Serve1(class.AddBinding, func(a *Agent, _ context.Context, bs []binding.Binding) (rt.Void, error) {
		for _, b := range bs {
			a.cache.Add(b)
		}
		return rt.Void{}, nil
	}),
	rt.Serve1(class.InvalidateLOID, func(a *Agent, _ context.Context, ls []loid.LOID) (rt.Void, error) {
		for _, l := range ls {
			a.cache.InvalidateLOID(l)
		}
		return rt.Void{}, nil
	}),
	rt.Serve1(InvalidateBinding, func(a *Agent, _ context.Context, b binding.Binding) (rt.Void, error) {
		a.cache.InvalidateBinding(b)
		return rt.Void{}, nil
	}),
	rt.Serve0(CacheStats, func(a *Agent, _ context.Context) (Stats, error) {
		st := a.cache.Stats()
		return Stats{st.Hits, st.Misses + st.Expired}, nil
	}),
)

// Interface is the member-function set of a Binding Agent.
var Interface = server.Interface()

// maxClassDepth bounds the kind-of recursion of §4.1.3.
const maxClassDepth = 32

// Agent is the Binding Agent implementation.
type Agent struct {
	self loid.LOID

	// cache is the agent's binding cache (§3.6, Fig 15).
	cache *binding.Cache
	// pairs caches responsibility pairs: class LOID -> responsible
	// class LOID ("extensive caching of both bindings and
	// 'responsibility pairs' ensures that the vast majority of
	// accesses occurs locally", §4.1.3). Guarded by pairsMu: agents
	// dispatch concurrently.
	pairsMu sync.Mutex
	pairs   map[loid.LOID]loid.LOID

	// parent, if set, makes this agent a tree node: misses are
	// forwarded to the parent instead of the class path.
	parent     loid.LOID
	parentAddr oa.Address

	// legionClassAddr is the Object Address of LegionClass — part of
	// every Binding Agent's wiring, analogous to the paper's statement
	// that an object's persistent state carries its Binding Agent's
	// address.
	legionClassAddr oa.Address

	obj *rt.Object
}

// New builds a Binding Agent with a cache of the given capacity
// (0 = unbounded). legionClassAddr roots the class-location procedure.
func New(self loid.LOID, cacheSize int, legionClassAddr oa.Address) *Agent {
	return &Agent{
		self:            self,
		cache:           binding.NewCache(cacheSize),
		pairs:           make(map[loid.LOID]loid.LOID),
		legionClassAddr: legionClassAddr,
	}
}

// SetParent links this agent under a parent agent (k-ary combining
// tree, §5.2.2).
func (a *Agent) SetParent(parent loid.LOID, addr oa.Address) {
	a.parent = parent
	a.parentAddr = addr
}

// LOID returns the agent's name.
func (a *Agent) LOID() loid.LOID { return a.self }

// Cache exposes the binding cache for inspection.
func (a *Agent) Cache() *binding.Cache { return a.cache }

// Interface implements rt.Impl.
func (a *Agent) Interface() *idl.Interface { return Interface }

// Bind implements rt.Binder.
func (a *Agent) Bind(o *rt.Object) { a.obj = o }

// Dispatch implements rt.Impl.
func (a *Agent) Dispatch(inv *rt.Invocation) ([][]byte, error) { return server.Dispatch(a, inv) }

// getBinding implements GetBinding(LOID) (§4.1.2). ctx carries the
// original invocation's remaining deadline and trace identity through
// the resolution chain.
func (a *Agent) getBinding(ctx context.Context, target loid.LOID) (binding.Binding, error) {
	if b, ok := a.cache.Get(target); ok {
		return b, nil
	}
	if !a.parent.IsNil() {
		// Combining tree: forward the miss upward.
		b, err := GetBinding.Call(ctx, a.at(a.parentAddr, a.parent), target)
		if err != nil {
			return binding.Binding{}, err
		}
		a.cache.Add(b)
		return b, nil
	}
	b, err := a.resolveViaClass(ctx, target)
	if err != nil {
		return binding.Binding{}, err
	}
	a.cache.Add(b)
	return b, nil
}

// rebindStale implements GetBinding(binding) (§3.6): "the object
// employing the Binding Agent can explicitly request that a binding be
// refreshed; it will typically do so when the binding that it has
// doesn't work."
func (a *Agent) rebindStale(ctx context.Context, stale binding.Binding) (binding.Binding, error) {
	a.cache.InvalidateBinding(stale)
	// §3.6: only "if the Object Address in the binding parameter
	// matches the one in the Binding Agent's local cache [might it]
	// contact the class object for an updated binding" — a cached
	// binding that differs from the stale one (e.g. delivered by a
	// class's propagation push) is already the update.
	if b, ok := a.cache.Get(stale.LOID); ok && !b.Address.Equal(stale.Address) {
		return b, nil
	}
	if !a.parent.IsNil() {
		b, err := RebindStale.Call(ctx, a.at(a.parentAddr, a.parent), stale)
		if err != nil {
			return binding.Binding{}, err
		}
		a.cache.Add(b)
		return b, nil
	}
	// Root agent: ask the responsible class for a better binding.
	target := stale.LOID
	if target.IsClass() {
		b, err := a.refreshClassBinding(ctx, target, stale)
		if err != nil {
			return binding.Binding{}, err
		}
		a.cache.Add(b)
		return b, nil
	}
	clsB, err := a.resolveClass(ctx, target.ClassLOID(), 0)
	if err != nil {
		return binding.Binding{}, err
	}
	b, err := class.RefreshBinding.Call(ctx, a.at(clsB.Address, clsB.LOID), stale)
	if err != nil {
		// The class binding itself may be stale — class objects can
		// migrate too. Re-resolve the class and retry once.
		a.cache.InvalidateBinding(clsB)
		freshCls, rerr := a.refreshClassBinding(ctx, target.ClassLOID(), clsB)
		if rerr != nil {
			return binding.Binding{}, fmt.Errorf("bindagent %v: refresh %v: %w", a.self, target, err)
		}
		b, err = class.RefreshBinding.Call(ctx, a.at(freshCls.Address, freshCls.LOID), stale)
		if err != nil {
			return binding.Binding{}, err
		}
	}
	a.cache.Add(b)
	return b, nil
}

// resolveViaClass finds target's binding through its class (§4.1.2):
// locate the class (possibly recursively, §4.1.3), then ask the class,
// which "must be able to return a binding if one exists" — possibly by
// activating the object through its Magistrate.
func (a *Agent) resolveViaClass(ctx context.Context, target loid.LOID) (binding.Binding, error) {
	if target.IsClass() {
		return a.resolveClass(ctx, target, 0)
	}
	clsB, err := a.resolveClass(ctx, target.ClassLOID(), 0)
	if err != nil {
		return binding.Binding{}, fmt.Errorf("bindagent %v: class of %v: %w", a.self, target, err)
	}
	b, err := class.GetBinding.Call(ctx, a.at(clsB.Address, clsB.LOID), target)
	if err != nil {
		// The class binding itself may be stale (a migrated class
		// object): drop it and retry once through a fresh class
		// resolution.
		a.cache.InvalidateBinding(clsB)
		clsB, rerr := a.refreshClassBinding(ctx, target.ClassLOID(), clsB)
		if rerr != nil {
			return binding.Binding{}, fmt.Errorf("bindagent %v: %v: %w", a.self, target, err)
		}
		return class.GetBinding.Call(ctx, a.at(clsB.Address, clsB.LOID), target)
	}
	return b, nil
}

// resolveClass implements the recursive class location of §4.1.3: ask
// LegionClass; either it answers directly, or it names the responsible
// class, which is located the same way and then consulted. Cached
// bindings and responsibility pairs short-circuit both steps.
func (a *Agent) resolveClass(ctx context.Context, cls loid.LOID, depth int) (binding.Binding, error) {
	if depth > maxClassDepth {
		return binding.Binding{}, fmt.Errorf("bindagent %v: class chain deeper than %d", a.self, maxClassDepth)
	}
	if cls.SameObject(loid.LegionClass) {
		// "The process can end when the responsible class is
		// LegionClass itself" (§4.1.3).
		return binding.Forever(loid.LegionClass, a.legionClassAddr), nil
	}
	if b, ok := a.cache.Get(cls); ok {
		return b, nil
	}
	// Responsibility-pair cache first; LegionClass only on a pair miss.
	resp, havePair := a.pairFor(cls)
	if !havePair {
		loc, err := class.LocateClass.Call(ctx, a.at(a.legionClassAddr, loid.LegionClass), cls)
		if err != nil {
			return binding.Binding{}, err
		}
		if loc.Direct {
			a.cache.Add(loc.Binding)
			return loc.Binding, nil
		}
		resp = loc.Responsible
		a.setPair(cls, resp)
	}
	respB, err := a.resolveClass(ctx, resp, depth+1)
	if err != nil {
		return binding.Binding{}, err
	}
	b, err := class.GetBinding.Call(ctx, a.at(respB.Address, respB.LOID), cls)
	if err != nil {
		return binding.Binding{}, fmt.Errorf("bindagent %v: responsible class %v: %w", a.self, resp, err)
	}
	a.cache.Add(b)
	return b, nil
}

// refreshClassBinding re-resolves a class binding treating staleB as
// bad: LegionClass or the responsible class is asked to refresh.
func (a *Agent) refreshClassBinding(ctx context.Context, cls loid.LOID, staleB binding.Binding) (binding.Binding, error) {
	a.cache.InvalidateLOID(cls)
	if cls.SameObject(loid.LegionClass) {
		return binding.Forever(loid.LegionClass, a.legionClassAddr), nil
	}
	resp, havePair := a.pairFor(cls)
	if !havePair {
		loc, err := class.LocateClass.Call(ctx, a.at(a.legionClassAddr, loid.LegionClass), cls)
		if err != nil {
			return binding.Binding{}, err
		}
		if loc.Direct {
			a.cache.Add(loc.Binding)
			return loc.Binding, nil
		}
		resp = loc.Responsible
		a.setPair(cls, resp)
	}
	respB, err := a.resolveClass(ctx, resp, 0)
	if err != nil {
		return binding.Binding{}, err
	}
	stale := staleB
	stale.LOID = cls
	b, err := class.RefreshBinding.Call(ctx, a.at(respB.Address, respB.LOID), stale)
	if err != nil {
		return binding.Binding{}, err
	}
	a.cache.Add(b)
	return b, nil
}

// at refers to target at addr through the agent's caller.
func (a *Agent) at(addr oa.Address, target loid.LOID) rt.Ref { return a.obj.Caller().At(addr, target) }

// SaveState implements rt.Impl: the agent persists its wiring (parent
// and LegionClass addresses); cached bindings are soft state.
func (a *Agent) SaveState() ([]byte, error) {
	var w wire.Writer
	w.LOID(a.parent)
	w.Address(a.parentAddr)
	w.Address(a.legionClassAddr)
	return w.Bytes(), nil
}

// RestoreState implements rt.Impl.
func (a *Agent) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	r := wire.NewReader(state)
	parent, parentAddr, legionClassAddr := r.LOID(), r.Address(), r.Address()
	if err := r.Done(); err != nil {
		return fmt.Errorf("bindagent: state: %w", err)
	}
	a.parent, a.parentAddr, a.legionClassAddr = parent, parentAddr, legionClassAddr
	return nil
}

func (a *Agent) pairFor(cls loid.LOID) (loid.LOID, bool) {
	a.pairsMu.Lock()
	defer a.pairsMu.Unlock()
	r, ok := a.pairs[cls.ID()]
	return r, ok
}

func (a *Agent) setPair(cls, responsible loid.LOID) {
	a.pairsMu.Lock()
	defer a.pairsMu.Unlock()
	a.pairs[cls.ID()] = responsible
}
