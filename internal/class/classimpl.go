package class

import (
	"context"

	"fmt"
	"slices"
	"sync"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Interface is the class-mandatory member-function set (§3.7: "it will
// include at least Create(), Derive(), InheritFrom(), Delete(),
// GetBinding(), and GetInterface()") plus the reflective table hooks
// and notification methods this implementation exposes.
var Interface = idl.NewInterface("LegionClass",
	idl.MethodSig{Name: "Create",
		Params: []idl.Param{
			{Name: "initState", Type: idl.TBytes},
			{Name: "magistrateHint", Type: idl.TLOID},
			{Name: "hostHint", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "Derive",
		Params: []idl.Param{
			{Name: "name", Type: idl.TString},
			{Name: "impl", Type: idl.TString},
			{Name: "interface", Type: idl.TBytes},
			{Name: "flags", Type: idl.TUint64},
			{Name: "magistrateHint", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "class", Type: idl.TLOID}, {Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "InheritFrom",
		Params: []idl.Param{{Name: "base", Type: idl.TLOID}}},
	idl.MethodSig{Name: "Delete",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}}},
	idl.MethodSig{Name: "GetBinding",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "RefreshBinding",
		Params:  []idl.Param{{Name: "stale", Type: idl.TBinding}},
		Returns: []idl.Param{{Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "GetInstanceInterface",
		Returns: []idl.Param{{Name: "interface", Type: idl.TBytes}}},
	idl.MethodSig{Name: "DescribeInstances",
		Returns: []idl.Param{
			{Name: "implSpec", Type: idl.TString},
			{Name: "interface", Type: idl.TBytes},
			{Name: "parts", Type: idl.TBytes}}},
	idl.MethodSig{Name: "Info",
		Returns: []idl.Param{
			{Name: "name", Type: idl.TString},
			{Name: "classID", Type: idl.TUint64},
			{Name: "super", Type: idl.TLOID},
			{Name: "flags", Type: idl.TUint64},
			{Name: "instances", Type: idl.TUint64},
			{Name: "subclasses", Type: idl.TUint64}}},
	idl.MethodSig{Name: "RegisterInstance",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "addr", Type: idl.TAddress}}},
	idl.MethodSig{Name: "NotifyAddress",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "addr", Type: idl.TAddress}}},
	idl.MethodSig{Name: "NotifyDeactivated",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}}},
	idl.MethodSig{Name: "Clone",
		Params:  []idl.Param{{Name: "magistrateHint", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "class", Type: idl.TLOID}, {Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "GetRow",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{
			{Name: "addr", Type: idl.TAddress},
			{Name: "magistrates", Type: idl.TBytes},
			{Name: "schedulingAgent", Type: idl.TLOID},
			{Name: "candidates", Type: idl.TBytes},
			{Name: "isSubclass", Type: idl.TBool}}},
	idl.MethodSig{Name: "SetSchedulingAgent",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "agent", Type: idl.TLOID}}},
	idl.MethodSig{Name: "SetCandidateMagistrates",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "magistrates", Type: idl.TBytes}}},
	idl.MethodSig{Name: "SetCurrentMagistrates",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "magistrates", Type: idl.TBytes}}},
	idl.MethodSig{Name: "SetDefaultMagistrates",
		Params: []idl.Param{{Name: "magistrates", Type: idl.TBytes}}},
	idl.MethodSig{Name: "SetDefaultSchedulingAgent",
		Params: []idl.Param{{Name: "agent", Type: idl.TLOID}}},
)

// ClassImpl is the generic class-object behaviour, parameterized by
// Meta. It is registered in the implementation registry under ImplName,
// so class objects persist, migrate, and activate exactly like other
// Legion objects (classes are objects, §2.1.3).
type ClassImpl struct {
	mu    sync.Mutex
	meta  *Meta
	table map[loid.Ident]*Row
	rr    int // round-robin over default magistrates
	subs  subscribers
	obj   *rt.Object
}

// NewClassImpl builds a class object behaviour from meta.
func NewClassImpl(meta *Meta) (*ClassImpl, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	if meta.InstanceInterface == nil {
		meta.InstanceInterface = idl.NewInterface(meta.Name)
	}
	return &ClassImpl{meta: meta, table: make(map[loid.Ident]*Row)}, nil
}

// NewEmptyClassImpl builds an uninitialized class object, to be filled
// in by RestoreState; this is the implreg factory form.
func NewEmptyClassImpl() rt.Impl {
	return &ClassImpl{
		meta:  &Meta{Name: "uninitialized", Self: loid.NewNoKey(1, 0), Flags: FlagAbstract},
		table: make(map[loid.Ident]*Row),
	}
}

// Meta returns the class metadata (callers must not mutate).
func (c *ClassImpl) Meta() *Meta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.meta
}

// Interface implements rt.Impl.
func (c *ClassImpl) Interface() *idl.Interface { return Interface }

// Bind implements rt.Binder.
func (c *ClassImpl) Bind(o *rt.Object) { c.obj = o }

// Dispatch implements rt.Impl.
func (c *ClassImpl) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	if handled, results, err := c.handlePropagation(inv); handled {
		return results, err
	}
	switch inv.Method {
	case "Create":
		return c.create(inv)
	case "Derive":
		return c.derive(inv)
	case "InheritFrom":
		return c.inheritFrom(inv)
	case "Delete":
		return c.deleteObject(inv)
	case "GetBinding":
		return c.getBinding(inv)
	case "RefreshBinding":
		return c.refreshBinding(inv)
	case "GetInstanceInterface":
		c.mu.Lock()
		defer c.mu.Unlock()
		return [][]byte{c.meta.InstanceInterface.Marshal(nil)}, nil
	case "DescribeInstances":
		c.mu.Lock()
		defer c.mu.Unlock()
		return [][]byte{
			wire.String(implreg.CompositeSpec(c.meta.ImplParts)),
			c.meta.InstanceInterface.Marshal(nil),
			wire.StringList(c.meta.ImplParts),
		}, nil
	case "Info":
		return c.info()
	case "RegisterInstance":
		return c.registerInstance(inv, false)
	case "NotifyAddress":
		return c.registerInstance(inv, true)
	case "NotifyDeactivated":
		return c.notifyDeactivated(inv)
	case "Clone":
		return c.clone(inv)
	case "GetRow":
		return c.getRow(inv)
	case "SetSchedulingAgent":
		return c.setSchedulingAgent(inv)
	case "SetCandidateMagistrates":
		return c.setCandidateMagistrates(inv)
	case "SetCurrentMagistrates":
		return c.setCurrentMagistrates(inv)
	case "SetDefaultMagistrates":
		return c.setDefaultMagistrates(inv)
	case "SetDefaultSchedulingAgent":
		agent, err := argLOID(inv, 0)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.meta.DefaultSchedulingAgent = agent
		c.mu.Unlock()
		return nil, nil
	}
	return nil, &rt.NoSuchMethodError{Method: inv.Method}
}

// create implements the class-mandatory Create(): instantiate a new
// non-class object (§2.1.1 is-a), with the cooperation of a Magistrate
// and Host Object (§4.2).
func (c *ClassImpl) create(inv *rt.Invocation) ([][]byte, error) {
	initState, err := inv.Arg(0)
	if err != nil {
		return nil, err
	}
	magHint, err := argLOID(inv, 1)
	if err != nil {
		return nil, err
	}
	hostHint, err := argLOID(inv, 2)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if c.meta.Flags.Abstract() {
		c.mu.Unlock()
		// "A class object whose Create() function is empty is said to
		// be Abstract; no direct instances of an Abstract class can
		// exist" (§2.1.2).
		return nil, fmt.Errorf("class %s is Abstract: Create is empty", c.meta.Name)
	}
	seq := c.meta.NextSeq
	c.meta.NextSeq++
	l := loid.New(c.meta.Self.ClassID, seq+1,
		loid.DeriveKey(fmt.Sprintf("%s/%d", c.meta.Name, seq+1)))
	implSpec := implreg.CompositeSpec(c.meta.ImplParts)
	mag, err := c.pickMagistrateLocked(magHint)
	sched := c.meta.DefaultSchedulingAgent
	candidates := c.meta.DefaultMagistrates
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	mc := magistrate.NewClient(c.obj.Caller(), mag)
	// Scheduling hook (§3.7/§3.8): with no explicit host hint, the
	// class may employ its Scheduling Agent to suggest a host, passing
	// the suggestion through Instantiate's host hint. Placement falls
	// back to the Magistrate's default policy if the agent is
	// unreachable — scheduling is advice, not mechanism.
	if hostHint.IsNil() && !sched.IsNil() {
		if hosts, err := mc.ListHosts(); err == nil && len(hosts) > 0 {
			if pick, err := pickHostVia(c.obj.Caller(), sched, hosts); err == nil {
				hostHint = pick
			}
		}
	}
	// One Magistrate call registers and starts the object: a Create that
	// fails leaves nothing behind, and one that succeeds writes nothing
	// to the jurisdiction's store.
	b, err := mc.InstantiateCtx(inv.Ctx(), l, implSpec, initState, hostHint)
	if err != nil {
		return nil, fmt.Errorf("class %s: instantiate %v with %v: %w", c.meta.Name, l, mag, err)
	}
	c.mu.Lock()
	c.table[l.Ident()] = &Row{
		Address:              b.Address,
		CurrentMagistrates:   c.oneMagistrateLocked(mag),
		SchedulingAgent:      sched,
		CandidateMagistrates: candidates,
	}
	c.mu.Unlock()
	c.pushBinding(b)
	return [][]byte{wire.LOID(l), wire.Binding(b)}, nil
}

// derive implements the class-mandatory Derive(): create a subclass
// (§2.1.1 kind-of). The new class object is itself placed through a
// Magistrate, and LegionClass is contacted for a fresh Class
// Identifier (§3.7) — recording the responsibility pair (§4.1.3).
func (c *ClassImpl) derive(inv *rt.Invocation) ([][]byte, error) {
	name, err := argString(inv, 0)
	if err != nil {
		return nil, err
	}
	implName, err := argString(inv, 1)
	if err != nil {
		return nil, err
	}
	rawIfc, err := inv.Arg(2)
	if err != nil {
		return nil, err
	}
	// The interface argument describes the new implementation's
	// methods; in the paper it would be produced by a Legion-aware
	// compiler from the class's IDL (§2, §4.1). Empty means "inherit
	// the superclass interface unchanged".
	var newIfc *idl.Interface
	if len(rawIfc) > 0 {
		var rest []byte
		newIfc, rest, err = idl.Unmarshal(rawIfc)
		if err != nil || len(rest) != 0 {
			return nil, fmt.Errorf("class %s: Derive interface argument: %v", c.meta.Name, err)
		}
	}
	rawFlags, err := inv.Arg(3)
	if err != nil {
		return nil, err
	}
	flags, err := wire.AsUint64(rawFlags)
	if err != nil {
		return nil, err
	}
	magHint, err := argLOID(inv, 4)
	if err != nil {
		return nil, err
	}
	return c.deriveClass(inv.Ctx(), name, implName, newIfc, Flags(flags), magHint, false)
}

// deriveClass makes and starts a subclass object for Derive and Clone.
// ctx is the invocation's, so the LegionClass consult and the
// Magistrate hop keep the caller's deadline and trace.
func (c *ClassImpl) deriveClass(ctx context.Context, name, implName string, newIfc *idl.Interface, flags Flags, magHint loid.LOID, isClone bool) ([][]byte, error) {
	c.mu.Lock()
	if c.meta.Flags.Private() && !isClone {
		c.mu.Unlock()
		// "A class object whose Derive() function is empty is said to
		// be Private" (§2.1.2).
		return nil, fmt.Errorf("class %s is Private: Derive is empty", c.meta.Name)
	}
	selfL := c.meta.Self
	parentName := c.meta.Name
	parentParts := append([]string(nil), c.meta.ImplParts...)
	parentIfc := c.meta.InstanceInterface.Clone("")
	parentSched := c.meta.DefaultSchedulingAgent
	parentMags := c.meta.DefaultMagistrates
	c.mu.Unlock()

	if name == "" {
		return nil, fmt.Errorf("class %s: Derive needs a subclass name", parentName)
	}
	// Obtain a unique Class Identifier from LegionClass, which records
	// that we are responsible for locating the new class (§4.1.3).
	res, err := c.obj.Caller().CallCtx(ctx, loid.LegionClass, "NewClassID",
		wire.LOID(selfL), wire.String(name))
	if err != nil {
		return nil, fmt.Errorf("class %s: contact LegionClass: %w", parentName, err)
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, fmt.Errorf("class %s: NewClassID: %w", parentName, err)
	}
	newID, err := wire.AsUint64(raw)
	if err != nil {
		return nil, err
	}

	// The subclass inherits the superclass's member functions (§2.1):
	// its instance interface starts as a copy of ours, and its
	// implementation parts default to ours, with an overriding
	// implementation (if given) first.
	childParts := parentParts
	childIfc := parentIfc.Clone(name)
	if implName != "" {
		childParts = append([]string{implName}, parentParts...)
	}
	if newIfc != nil {
		// The overriding implementation's methods come first, so its
		// signatures win conflicts — matching the composite dispatch
		// order of the instance implementation.
		childIfc = newIfc.Clone(name)
		if err := childIfc.Merge(parentIfc, idl.ConflictKeep); err != nil {
			return nil, err
		}
	}
	childMeta := &Meta{
		Self:                   loid.New(newID, 0, loid.DeriveKey(fmt.Sprintf("class/%s/%d", name, newID))),
		Name:                   name,
		Super:                  selfL,
		Flags:                  flags,
		ImplParts:              childParts,
		InstanceInterface:      childIfc,
		DefaultSchedulingAgent: parentSched,
		DefaultMagistrates:     parentMags,
	}
	if err := childMeta.Validate(); err != nil {
		return nil, err
	}
	childImpl, err := NewClassImpl(childMeta)
	if err != nil {
		return nil, err
	}
	childState, err := childImpl.SaveState()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	mag, err := c.pickMagistrateLocked(magHint)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	b, err := magistrate.NewClient(c.obj.Caller(), mag).InstantiateCtx(ctx, childMeta.Self, ImplName, childState, loid.Nil)
	if err != nil {
		return nil, fmt.Errorf("class %s: instantiate subclass %s: %w", parentName, name, err)
	}
	c.mu.Lock()
	c.table[childMeta.Self.Ident()] = &Row{
		Address:              b.Address,
		CurrentMagistrates:   c.oneMagistrateLocked(mag),
		SchedulingAgent:      parentSched,
		CandidateMagistrates: parentMags,
		IsSubclass:           true,
	}
	c.mu.Unlock()
	return [][]byte{wire.LOID(childMeta.Self), wire.Binding(b)}, nil
}

// inheritFrom implements the class-mandatory InheritFrom() (§2.1):
// "this function does not cause any new objects to be created; instead,
// it serves to alter the composition of future instances of the class."
func (c *ClassImpl) inheritFrom(inv *rt.Invocation) ([][]byte, error) {
	base, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.meta.Flags.Fixed() {
		name := c.meta.Name
		c.mu.Unlock()
		// "A class object whose InheritFrom() function is empty is said
		// to be Fixed" (§2.1.2).
		return nil, fmt.Errorf("class %s is Fixed: InheritFrom is empty", name)
	}
	name := c.meta.Name
	c.mu.Unlock()

	// Ask the base class how its instances are composed.
	res, err := c.obj.Caller().Call(base, "DescribeInstances")
	if err != nil {
		return nil, fmt.Errorf("class %s: describe base %v: %w", name, base, err)
	}
	if rerr := res.Err(); rerr != nil {
		return nil, fmt.Errorf("class %s: base %v: %w", name, base, rerr)
	}
	rawIfc, err := res.Result(1)
	if err != nil {
		return nil, err
	}
	baseIfc, rest, err := idl.Unmarshal(rawIfc)
	if err != nil || len(rest) != 0 {
		return nil, fmt.Errorf("class %s: base interface: %v", name, err)
	}
	rawParts, err := res.Result(2)
	if err != nil {
		return nil, err
	}
	baseParts, err := wire.AsStringList(rawParts)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// "This causes B's member functions to be added to C's interface."
	// Existing methods win (first base wins), matching the composite
	// dispatch order.
	if err := c.meta.InstanceInterface.Merge(baseIfc, idl.ConflictKeep); err != nil {
		return nil, err
	}
	for _, p := range baseParts {
		if !contains(c.meta.ImplParts, p) {
			c.meta.ImplParts = append(c.meta.ImplParts, p)
		}
	}
	if !containsLOID(c.meta.Bases, base) {
		c.meta.Bases = append(c.meta.Bases, base)
	}
	return nil, nil
}

func (c *ClassImpl) deleteObject(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	row, ok := c.table[l.Ident()]
	if !ok {
		name := c.meta.Name
		c.mu.Unlock()
		return nil, fmt.Errorf("class %s: unknown object %v", name, l)
	}
	mags := append([]loid.LOID(nil), row.CurrentMagistrates...)
	delete(c.table, l.Ident())
	c.mu.Unlock()
	c.pushInvalidate(l)
	// Tell every holding magistrate to remove Active and Inert copies
	// (§3.8 Delete).
	var firstErr error
	for _, mag := range mags {
		mc := magistrate.NewClient(c.obj.Caller(), mag)
		if err := mc.Delete(l); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// getBinding implements the class side of the binding mechanism
// (§4.1.2): answer from the logical table's Object Address field, or
// consult the object's Magistrate — activating the object if need be.
func (c *ClassImpl) getBinding(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	b, err := c.bindingFor(inv.Ctx(), l, oa.Address{})
	if err != nil {
		return nil, err
	}
	return [][]byte{wire.Binding(b)}, nil
}

// refreshBinding is GetBinding(binding) (§3.6): the caller asserts the
// passed binding is stale; if our table agrees with it, we re-consult
// the Magistrate rather than re-serving the stale address.
func (c *ClassImpl) refreshBinding(inv *rt.Invocation) ([][]byte, error) {
	raw, err := inv.Arg(0)
	if err != nil {
		return nil, err
	}
	stale, err := wire.AsBinding(raw)
	if err != nil {
		return nil, err
	}
	b, err := c.bindingFor(inv.Ctx(), stale.LOID, stale.Address)
	if err != nil {
		return nil, err
	}
	return [][]byte{wire.Binding(b)}, nil
}

// bindingFor returns a binding for l, treating staleAddr (if non-zero)
// as known-bad. ctx carries the original caller's remaining deadline
// and trace identity into the Magistrate/Host activation chain.
func (c *ClassImpl) bindingFor(ctx context.Context, l loid.LOID, staleAddr oa.Address) (binding.Binding, error) {
	c.mu.Lock()
	row, ok := c.table[l.Ident()]
	if !ok {
		name := c.meta.Name
		c.mu.Unlock()
		return binding.Binding{}, fmt.Errorf("class %s: unknown object %v", name, l)
	}
	if !row.Address.IsZero() && !row.Address.Equal(staleAddr) {
		b := binding.Forever(l, row.Address)
		c.mu.Unlock()
		return b, nil
	}
	if row.Address.Equal(staleAddr) {
		row.Address = oa.Address{}
	}
	mags := append([]loid.LOID(nil), row.CurrentMagistrates...)
	name := c.meta.Name
	c.mu.Unlock()

	// The Object Address field is empty: consult a Magistrate from the
	// Current Magistrate List via Activate() — "referring to the LOID
	// of an Inert object can cause the object to be activated" (§4.1.2).
	var lastErr error
	for _, mag := range mags {
		mc := magistrate.NewClient(c.obj.Caller(), mag)
		b, err := mc.ActivateCtx(ctx, l, loid.Nil)
		if err != nil {
			lastErr = err
			continue
		}
		c.mu.Lock()
		if row2, ok := c.table[l.Ident()]; ok {
			row2.Address = b.Address
		}
		c.mu.Unlock()
		// News of the (re)activation reaches subscribed agents before
		// they next see the stale address (§4.1.4).
		c.pushBinding(b)
		return b, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no current magistrate")
	}
	return binding.Binding{}, fmt.Errorf("class %s: cannot bind %v: %w", name, l, lastErr)
}

func (c *ClassImpl) info() ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var instances, subclasses uint64
	for _, row := range c.table {
		if row.IsSubclass {
			subclasses++
		} else {
			instances++
		}
	}
	return [][]byte{
		wire.String(c.meta.Name),
		wire.Uint64(c.meta.Self.ClassID),
		wire.LOID(c.meta.Super),
		wire.Uint64(uint64(c.meta.Flags)),
		wire.Uint64(instances),
		wire.Uint64(subclasses),
	}, nil
}

// registerInstance records (or, for notify=true, updates) an instance
// started out-of-band — the §4.2.1 bootstrap path where Host Objects
// and Magistrates "contact the existing class object ... to tell it of
// their existence", and the §4.1.4 address-propagation path.
func (c *ClassImpl) registerInstance(inv *rt.Invocation, mustExist bool) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	raw, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	addr, err := wire.AsAddress(raw)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	row, ok := c.table[l.Ident()]
	if !ok {
		if mustExist {
			c.mu.Unlock()
			return nil, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
		}
		row = &Row{SchedulingAgent: c.meta.DefaultSchedulingAgent}
		c.table[l.Ident()] = row
	}
	row.Address = addr
	c.mu.Unlock()
	c.pushBinding(binding.Forever(l, addr))
	return nil, nil
}

func (c *ClassImpl) notifyDeactivated(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if row, ok := c.table[l.Ident()]; ok {
		row.Address = oa.Address{}
	}
	c.mu.Unlock()
	c.pushInvalidate(l)
	return nil, nil
}

// clone implements the hot-class relief of §5.2.2: "the cloned class is
// derived from the heavily used class without changing the interface in
// any way."
func (c *ClassImpl) clone(inv *rt.Invocation) ([][]byte, error) {
	magHint, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	name := fmt.Sprintf("%s-clone%d", c.meta.Name, len(c.table))
	c.mu.Unlock()
	return c.deriveClass(inv.Ctx(), name, "", nil, 0, magHint, true)
}

func (c *ClassImpl) getRow(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.table[l.Ident()]
	if !ok {
		return nil, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
	}
	return [][]byte{
		wire.Address(row.Address),
		wire.LOIDList(row.CurrentMagistrates),
		wire.LOID(row.SchedulingAgent),
		wire.LOIDList(row.CandidateMagistrates),
		wire.Bool(row.IsSubclass),
	}, nil
}

func (c *ClassImpl) setSchedulingAgent(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	agent, err := argLOID(inv, 1)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.table[l.Ident()]
	if !ok {
		return nil, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
	}
	row.SchedulingAgent = agent
	return nil, nil
}

func (c *ClassImpl) setCandidateMagistrates(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	raw, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	mags, err := wire.AsLOIDList(raw)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.table[l.Ident()]
	if !ok {
		return nil, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
	}
	row.CandidateMagistrates = mags
	return nil, nil
}

// setCurrentMagistrates updates the Current Magistrate List (Fig 16)
// after a migration: the mover records which Magistrates now hold the
// object.
func (c *ClassImpl) setCurrentMagistrates(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	raw, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	mags, err := wire.AsLOIDList(raw)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.table[l.Ident()]
	if !ok {
		return nil, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
	}
	row.CurrentMagistrates = mags
	return nil, nil
}

func (c *ClassImpl) setDefaultMagistrates(inv *rt.Invocation) ([][]byte, error) {
	raw, err := inv.Arg(0)
	if err != nil {
		return nil, err
	}
	mags, err := wire.AsLOIDList(raw)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Rows share the old list; replace it, never write into it.
	c.meta.DefaultMagistrates = mags
	return nil, nil
}

// oneMagistrateLocked is the Current Magistrate List [mag] for a new
// row: a capped view of the class's default list when mag is on it, so
// the rows of a class share one array instead of one each. Nothing
// writes into a row's lists; they are only ever replaced. c.mu held.
func (c *ClassImpl) oneMagistrateLocked(mag loid.LOID) []loid.LOID {
	if i := slices.Index(c.meta.DefaultMagistrates, mag); i >= 0 {
		return c.meta.DefaultMagistrates[i : i+1 : i+1]
	}
	return []loid.LOID{mag}
}

// pickMagistrateLocked applies the hint or rotates over the class's
// default candidate magistrates.
func (c *ClassImpl) pickMagistrateLocked(hint loid.LOID) (loid.LOID, error) {
	if !hint.IsNil() {
		return hint, nil
	}
	if len(c.meta.DefaultMagistrates) == 0 {
		return loid.Nil, fmt.Errorf("class %s has no candidate magistrates", c.meta.Name)
	}
	m := c.meta.DefaultMagistrates[c.rr%len(c.meta.DefaultMagistrates)]
	c.rr++
	return m, nil
}

// SaveState implements rt.Impl: a class object's OPR carries its meta
// and its whole logical table.
func (c *ClassImpl) SaveState() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &writer{}
	c.meta.marshal(w)
	w.u64(uint64(len(c.table)))
	for id, row := range c.table {
		marshalRow(w, id.LOID(), row)
	}
	return w.buf, nil
}

// RestoreState implements rt.Impl.
func (c *ClassImpl) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	r := &reader{buf: state}
	meta, err := unmarshalMeta(r)
	if err != nil {
		return err
	}
	n, err := r.u64()
	if err != nil {
		return err
	}
	// Bound by what the remaining buffer could hold (each row carries
	// at least one LOID) so corrupted counts cannot balloon the map.
	if n > uint64(len(r.buf))/loid.EncodedSize {
		return fmt.Errorf("class: table size %d exceeds buffer", n)
	}
	table := make(map[loid.Ident]*Row, n)
	for i := uint64(0); i < n; i++ {
		l, row, err := unmarshalRow(r)
		if err != nil {
			return err
		}
		// Restored rows share the class's default list like live ones.
		if slices.Equal(row.CandidateMagistrates, meta.DefaultMagistrates) {
			row.CandidateMagistrates = meta.DefaultMagistrates
		}
		table[l.Ident()] = row
	}
	if err := r.done(); err != nil {
		return err
	}
	c.mu.Lock()
	c.meta = meta
	c.table = table
	c.mu.Unlock()
	return nil
}

// pickHostVia asks a Scheduling Agent to choose among candidate hosts
// (the agent's PickHost member function, internal/sched).
func pickHostVia(c *rt.Caller, agent loid.LOID, hosts []loid.LOID) (loid.LOID, error) {
	res, err := c.Call(agent, "PickHost", wire.LOIDList(hosts))
	if err != nil {
		return loid.Nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return loid.Nil, err
	}
	return wire.AsLOID(raw)
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func containsLOID(ls []loid.LOID, l loid.LOID) bool {
	for _, x := range ls {
		if x.SameObject(l) {
			return true
		}
	}
	return false
}

func argLOID(inv *rt.Invocation, i int) (loid.LOID, error) {
	a, err := inv.Arg(i)
	if err != nil {
		return loid.Nil, err
	}
	return wire.AsLOID(a)
}

func argString(inv *rt.Invocation, i int) (string, error) {
	a, err := inv.Arg(i)
	if err != nil {
		return "", err
	}
	return wire.AsString(a), nil
}
