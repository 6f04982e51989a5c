package class

import (
	"context"
	"errors"
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
	"repro/internal/sched"
	"repro/internal/wire"
)

// The class-mandatory remote methods (§3.7: "it will include at least
// Create(), Derive(), InheritFrom(), Delete(), GetBinding(), and
// GetInterface()") plus the reflective table hooks and notification
// methods this implementation exposes.
var (
	Create = rt.M3("Create", rt.BytesParam("initState"), rt.LOIDParam("magistrateHint"), rt.LOIDParam("hostHint"),
		madeParam("object"))
	// CreateSet is Create for a set: Count objects, made as Count lone
	// Creates would make them, at one Instantiate per Magistrate.
	CreateSet = rt.M1("CreateSet", rt.Struct(
		rt.Field(rt.Uint64Param("count"), func(s *NewSet) *uint64 { return &s.Count }),
		rt.Field(rt.BytesParam("initState"), func(s *NewSet) *[]byte { return &s.InitState }),
		rt.Field(rt.LOIDParam("magistrateHint"), func(s *NewSet) *loid.LOID { return &s.MagistrateHint }),
		rt.Field(rt.LOIDParam("hostHint"), func(s *NewSet) *loid.LOID { return &s.HostHint })),
		madeListParam("objects"))
	Derive = rt.M1("Derive", rt.Struct(
		rt.Field(rt.StringParam("name"), func(s *Subclass) *string { return &s.Name }),
		rt.Field(rt.StringParam("impl"), func(s *Subclass) *string { return &s.Impl }),
		rt.Field(interfaceParam("interface"), func(s *Subclass) **idl.Interface { return &s.Interface }),
		rt.Field(flagsParam("flags"), func(s *Subclass) *Flags { return &s.Flags }),
		rt.Field(rt.LOIDParam("magistrateHint"), func(s *Subclass) *loid.LOID { return &s.MagistrateHint })),
		madeParam("class"))
	InheritFrom          = rt.M1("InheritFrom", rt.LOIDParam("base"), rt.None)
	Delete               = rt.M1("Delete", rt.LOIDParam("object"), rt.None)
	GetBinding           = rt.M1("GetBinding", rt.LOIDParam("object"), rt.BindingParam("b"))
	RefreshBinding       = rt.M1("RefreshBinding", rt.BindingParam("stale"), rt.BindingParam("b"))
	GetInstanceInterface = rt.M0("GetInstanceInterface", interfaceParam("interface"))
	DescribeInstances    = rt.M0("DescribeInstances", rt.Struct(
		rt.Field(rt.StringParam("implSpec"), func(c *Composition) *string { return &c.ImplSpec }),
		rt.Field(interfaceParam("interface"), func(c *Composition) **idl.Interface { return &c.Interface }),
		rt.Field(rt.StringListParam("parts"), func(c *Composition) *[]string { return &c.Parts })))
	Info = rt.M0("Info", rt.Struct(
		rt.Field(rt.StringParam("name"), func(s *Summary) *string { return &s.Name }),
		rt.Field(rt.Uint64Param("classID"), func(s *Summary) *uint64 { return &s.ClassID }),
		rt.Field(rt.LOIDParam("super"), func(s *Summary) *loid.LOID { return &s.Super }),
		rt.Field(flagsParam("flags"), func(s *Summary) *Flags { return &s.Flags }),
		rt.Field(rt.Uint64Param("instances"), func(s *Summary) *uint64 { return &s.Instances }),
		rt.Field(rt.Uint64Param("subclasses"), func(s *Summary) *uint64 { return &s.Subclasses })))
	RegisterInstance  = rt.M2("RegisterInstance", rt.LOIDParam("object"), rt.AddressParam("addr"), rt.None)
	NotifyDeactivated = rt.M1("NotifyDeactivated", rt.LOIDParam("object"), rt.None)
	Clone             = rt.M1("Clone", rt.LOIDParam("magistrateHint"), madeParam("class"))
	GetRow            = rt.M1("GetRow", rt.LOIDParam("object"), rt.Struct(
		rt.Field(rt.AddressParam("addr"), func(r *RowInfo) *oa.Address { return &r.Address }),
		rt.Field(rt.LOIDListParam("magistrates"), func(r *RowInfo) *[]loid.LOID { return &r.CurrentMagistrates }),
		rt.Field(rt.LOIDParam("schedulingAgent"), func(r *RowInfo) *loid.LOID { return &r.SchedulingAgent }),
		rt.Field(rt.LOIDListParam("candidates"), func(r *RowInfo) *[]loid.LOID { return &r.CandidateMagistrates }),
		rt.Field(rt.BoolParam("isSubclass"), func(r *RowInfo) *bool { return &r.IsSubclass })))
	SetSchedulingAgent        = rt.M2("SetSchedulingAgent", rt.LOIDParam("object"), rt.LOIDParam("agent"), rt.None)
	SetCandidateMagistrates   = rt.M2("SetCandidateMagistrates", rt.LOIDParam("object"), rt.LOIDListParam("magistrates"), rt.None)
	SetCurrentMagistrates     = rt.M2("SetCurrentMagistrates", rt.LOIDParam("object"), rt.LOIDListParam("magistrates"), rt.None)
	SetDefaultMagistrates     = rt.M1("SetDefaultMagistrates", rt.LOIDListParam("magistrates"), rt.None)
	SetDefaultSchedulingAgent = rt.M1("SetDefaultSchedulingAgent", rt.LOIDParam("agent"), rt.None)
)

// Made names an object a class made and binds it: Create's instance,
// Derive's and Clone's subclass.
type Made struct {
	LOID    loid.LOID
	Binding binding.Binding
}

func madeParam(name string) rt.Codec[Made] {
	return rt.Struct(
		rt.Field(rt.LOIDParam(name), func(m *Made) *loid.LOID { return &m.LOID }),
		rt.Field(rt.BindingParam("b"), func(m *Made) *binding.Binding { return &m.Binding }))
}

// madeListParam carries a list of instances in a bytes slot, as a
// binding list: each instance is the object its binding names.
func madeListParam(name string) rt.Codec[[]Made] {
	return rt.Param(name, idl.TBytes,
		func(ms []Made) []byte {
			n := 4
			for _, m := range ms {
				n += m.Binding.EncodedSize()
			}
			w := wire.NewWriter(make([]byte, 0, n))
			w.Count32(len(ms))
			for _, m := range ms {
				w.Binding(m.Binding)
			}
			return w.Bytes()
		},
		func(b []byte) ([]Made, error) {
			bs, err := wire.AsBindingList(b)
			ms := make([]Made, len(bs))
			for i, b := range bs {
				ms[i] = Made{b.LOID, b}
			}
			return ms, err
		})
}

// NewSet is what CreateSet makes: Count instances, each from
// InitState, with Create's Magistrate and host hints (loid.Nil for
// none).
type NewSet struct {
	Count          uint64
	InitState      []byte
	MagistrateHint loid.LOID
	HostHint       loid.LOID
}

// maxSet bounds a CreateSet's count: its Instantiate sets and its
// answer stay well inside a frame.
const maxSet = 1 << 16

// Subclass is what Derive makes: the subclass's name, an overriding
// implementation (empty inherits the superclass's unchanged), that
// implementation's interface (nil inherits the superclass's — in the
// paper the Legion-aware compiler supplies it from the IDL), its flags
// and a Magistrate hint (loid.Nil for none).
type Subclass struct {
	Name, Impl     string
	Interface      *idl.Interface
	Flags          Flags
	MagistrateHint loid.LOID
}

// Composition is how a class composes its instances (DescribeInstances).
type Composition struct {
	ImplSpec  string
	Interface *idl.Interface
	Parts     []string
}

// Summary is a class's Info.
type Summary struct {
	Name       string
	ClassID    uint64
	Super      loid.LOID
	Flags      Flags
	Instances  uint64
	Subclasses uint64
}

// RowInfo is the client-side view of a logical-table row (Fig 16).
type RowInfo struct {
	Address              oa.Address
	CurrentMagistrates   []loid.LOID
	SchedulingAgent      loid.LOID
	CandidateMagistrates []loid.LOID
	IsSubclass           bool
}

// interfaceParam carries an interface in a bytes slot; empty is nil.
func interfaceParam(name string) rt.Codec[*idl.Interface] {
	return rt.Param(name, idl.TBytes,
		func(in *idl.Interface) []byte {
			if in == nil {
				return nil
			}
			return in.Marshal(nil)
		},
		func(b []byte) (*idl.Interface, error) {
			if len(b) == 0 {
				return nil, nil
			}
			in, rest, err := idl.Unmarshal(b)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("class: %d trailing interface bytes", len(rest))
			}
			return in, err
		})
}

func flagsParam(name string) rt.Codec[Flags] {
	return rt.Param(name, idl.TUint64,
		func(f Flags) []byte { return wire.Uint64(uint64(f)) },
		func(b []byte) (Flags, error) { v, err := wire.AsUint64(b); return Flags(v), err })
}

var server = rt.NewServer("LegionClass",
	rt.Serve3(Create, func(c *ClassImpl, ctx context.Context, initState []byte, magHint, hostHint loid.LOID) (Made, error) {
		var one [1]Made
		if err := c.createSet(ctx, one[:], initState, magHint, hostHint); err != nil {
			return Made{}, err
		}
		return one[0], nil
	}),
	rt.Serve1(CreateSet, func(c *ClassImpl, ctx context.Context, s NewSet) ([]Made, error) {
		if s.Count == 0 || s.Count > maxSet {
			return nil, fmt.Errorf("class %s: CreateSet of %d objects, want 1 to %d", c.Meta().Name, s.Count, maxSet)
		}
		made := make([]Made, s.Count)
		if err := c.createSet(ctx, made, s.InitState, s.MagistrateHint, s.HostHint); err != nil {
			return nil, err
		}
		return made, nil
	}),
	rt.Serve1(Derive, func(c *ClassImpl, ctx context.Context, s Subclass) (Made, error) {
		return c.deriveClass(ctx, s, false)
	}),
	rt.Serve1(InheritFrom, (*ClassImpl).inheritFrom),
	rt.Serve1(Delete, (*ClassImpl).deleteObject),
	rt.Serve1(GetBinding, func(c *ClassImpl, ctx context.Context, l loid.LOID) (binding.Binding, error) {
		return c.bindingFor(ctx, l, oa.Address{})
	}),
	// RefreshBinding is GetBinding(binding) (§3.6): the caller asserts
	// the passed binding is stale; if our table agrees with it, we
	// re-consult the Magistrate rather than re-serving the stale address.
	rt.Serve1(RefreshBinding, func(c *ClassImpl, ctx context.Context, stale binding.Binding) (binding.Binding, error) {
		return c.bindingFor(ctx, stale.LOID, stale.Address)
	}),
	rt.Serve0(GetInstanceInterface, func(c *ClassImpl, _ context.Context) (*idl.Interface, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.meta.InstanceInterface.Clone(""), nil
	}),
	rt.Serve0(DescribeInstances, func(c *ClassImpl, _ context.Context) (Composition, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		return Composition{implreg.CompositeSpec(c.meta.ImplParts), c.meta.InstanceInterface.Clone(""),
			slices.Clone(c.meta.ImplParts)}, nil
	}),
	rt.Serve0(Info, (*ClassImpl).info),
	rt.Serve2(RegisterInstance, func(c *ClassImpl, _ context.Context, l loid.LOID, addr oa.Address) (rt.Void, error) {
		return c.registerInstances([]binding.Binding{binding.Forever(l, addr)}, false)
	}),
	rt.Serve1(magistrate.NotifyAddress, func(c *ClassImpl, _ context.Context, bs []binding.Binding) (rt.Void, error) {
		return c.registerInstances(bs, true)
	}),
	rt.Serve1(NotifyDeactivated, (*ClassImpl).notifyDeactivated),
	rt.Serve1(Clone, (*ClassImpl).clone),
	rt.Serve1(GetRow, (*ClassImpl).getRow),
	rt.Serve2(SetSchedulingAgent, func(c *ClassImpl, _ context.Context, l, agent loid.LOID) (rt.Void, error) {
		return c.updateRow(l, func(r *Row) { r.SchedulingAgent = agent })
	}),
	rt.Serve2(SetCandidateMagistrates, func(c *ClassImpl, _ context.Context, l loid.LOID, mags []loid.LOID) (rt.Void, error) {
		return c.updateRow(l, func(r *Row) { r.CandidateMagistrates = mags })
	}),
	// SetCurrentMagistrates updates the Current Magistrate List (Fig 16)
	// after a migration: the mover records which Magistrates now hold
	// the object.
	rt.Serve2(SetCurrentMagistrates, func(c *ClassImpl, _ context.Context, l loid.LOID, mags []loid.LOID) (rt.Void, error) {
		return c.updateRow(l, func(r *Row) { r.CurrentMagistrates = mags })
	}),
	rt.Serve1(SetDefaultMagistrates, func(c *ClassImpl, _ context.Context, mags []loid.LOID) (rt.Void, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Rows share the old list; replace it, never write into it.
		c.meta.DefaultMagistrates = mags
		return rt.Void{}, nil
	}),
	rt.Serve1(SetDefaultSchedulingAgent, func(c *ClassImpl, _ context.Context, agent loid.LOID) (rt.Void, error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.meta.DefaultSchedulingAgent = agent
		return rt.Void{}, nil
	}),
	rt.Serve2(SubscribeAgent, func(c *ClassImpl, _ context.Context, agent loid.LOID, addr oa.Address) (rt.Void, error) {
		c.subs.subscribe(agent, addr)
		return rt.Void{}, nil
	}),
	rt.Serve1(UnsubscribeAgent, func(c *ClassImpl, _ context.Context, agent loid.LOID) (rt.Void, error) {
		c.subs.unsubscribe(agent)
		return rt.Void{}, nil
	}),
)

// Interface is the member-function set every class object exports.
var Interface = server.Interface()

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
func (c *ClassImpl) Dispatch(inv *rt.Invocation) ([][]byte, error) { return server.Dispatch(c, inv) }

// createSet makes len(made) new non-class objects (§2.1.1 is-a), each
// with the cooperation of a Magistrate and a Host Object (§4.2), and
// fills made in: CreateSet, and the class-mandatory Create() as a set of
// one. The objects are made as that many lone Creates would make them.
// One critical section takes their sequence numbers and picks each
// one's Magistrate (the hint, or the rotation over the defaults), and a
// Scheduling Agent, if the class has one and no host is hinted, is
// asked for each object in turn. Each Magistrate is then sent its share
// in one Instantiate. An object that starts nowhere leaves nothing
// behind and gets no row; the error names the first such object, and
// the others are made and recorded all the same.
func (c *ClassImpl) createSet(ctx context.Context, made []Made, initState []byte, magHint, hostHint loid.LOID) error {
	c.mu.Lock()
	name := c.meta.Name
	if c.meta.Flags.Abstract() {
		c.mu.Unlock()
		// "A class object whose Create() function is empty is said to
		// be Abstract; no direct instances of an Abstract class can
		// exist" (§2.1.2).
		return fmt.Errorf("class %s is Abstract: Create is empty", name)
	}
	mags := make([]loid.LOID, len(made))
	for i := range made {
		seq := c.meta.NextSeq
		c.meta.NextSeq++
		made[i].LOID = loid.New(c.meta.Self.ClassID, seq+1,
			loid.DeriveKey(fmt.Sprintf("%s/%d", name, seq+1)))
		var err error
		if mags[i], err = c.pickMagistrateLocked(magHint); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	implSpec := implreg.CompositeSpec(c.meta.ImplParts)
	schedAgent := c.meta.DefaultSchedulingAgent
	candidates := c.meta.DefaultMagistrates
	c.mu.Unlock()

	set := make([]magistrate.Instance, len(made))
	for i, m := range made {
		set[i] = magistrate.Instance{Object: m.LOID, Impl: implSpec, State: initState, HostHint: hostHint}
		// Scheduling hook (§3.7/§3.8): with no explicit host hint, the
		// class may employ its Scheduling Agent to suggest a host, passing
		// the suggestion through Instantiate's host hint. Placement falls
		// back to the Magistrate's default policy if the agent is
		// unreachable — scheduling is advice, not mechanism.
		if hostHint.IsNil() && !schedAgent.IsNil() {
			if hosts, err := magistrate.ListHosts.Call(ctx, c.obj.Caller().To(mags[i])); err == nil && len(hosts) > 0 {
				if pick, err := sched.PickHost.Call(ctx, c.obj.Caller().To(schedAgent), hosts); err == nil {
					set[i].HostHint = pick
				}
			}
		}
	}

	// One Magistrate call registers and starts each Magistrate's share,
	// its objects in order, in the order the Magistrates were first
	// picked: an object that fails leaves nothing behind, and one that
	// succeeds writes nothing to the jurisdiction's store.
	first, firstErr := len(made), error(nil)
	for i, mag := range mags {
		if slices.Index(mags, mag) < i {
			continue // its share has gone
		}
		// share[j] is set[at[j]]; at is nil when the share is the set.
		share, at := set, []int(nil)
		if slices.ContainsFunc(mags, func(m loid.LOID) bool { return m != mag }) {
			share = nil
			for j, m := range mags {
				if m == mag {
					share, at = append(share, set[j]), append(at, j)
				}
			}
		}
		bs, err := c.instantiate(ctx, mag, share)
		for j, b := range bs {
			k := j
			if at != nil {
				k = at[j]
			}
			if !b.Address.IsZero() {
				made[k].Binding = b
			} else if k < first {
				first, firstErr = k, fmt.Errorf("class %s: instantiate %v with %v: %w", name, made[k].LOID, mag, err)
			}
		}
	}
	c.mu.Lock()
	for i, m := range made {
		if m.Binding.Address.IsZero() {
			continue
		}
		c.table[m.LOID.Ident()] = &Row{
			Address:              m.Binding.Address,
			CurrentMagistrates:   c.oneMagistrateLocked(mags[i]),
			SchedulingAgent:      schedAgent,
			CandidateMagistrates: candidates,
		}
	}
	c.mu.Unlock()
	push(c, AddBinding, func() (bs []binding.Binding) {
		for _, m := range made {
			if !m.Binding.Address.IsZero() {
				bs = append(bs, m.Binding)
			}
		}
		return bs
	})
	return firstErr
}

// instantiate sends mag one Instantiate for set. It returns a binding
// per object, the zero binding for one that did not start, and why the
// first such did not.
func (c *ClassImpl) instantiate(ctx context.Context, mag loid.LOID, set []magistrate.Instance) ([]binding.Binding, error) {
	r, err := magistrate.Instantiate.Call(ctx, c.obj.Caller().To(mag), set)
	if err == nil && len(r.Bindings) != len(set) {
		err = fmt.Errorf("magistrate %v answered %d bindings for %d objects", mag, len(r.Bindings), len(set))
	}
	if err != nil {
		return make([]binding.Binding, len(set)), err
	}
	if r.Failure != "" {
		err = errors.New(r.Failure)
	}
	return r.Bindings, err
}

// Derive (the class-mandatory Derive(), §2.1.1 kind-of) creates a
// subclass. The new class object is itself placed through a Magistrate,
// and LegionClass is contacted for a fresh Class Identifier (§3.7) —
// recording the responsibility pair (§4.1.3). The interface argument
// describes the new implementation's methods; in the paper it would be
// produced by a Legion-aware compiler from the class's IDL (§2, §4.1).

// deriveClass makes and starts a subclass object for Derive and Clone.
// ctx is the invocation's, so the LegionClass consult and the
// Magistrate hop keep the caller's deadline and trace.
func (c *ClassImpl) deriveClass(ctx context.Context, sub Subclass, isClone bool) (Made, error) {
	name, implName, newIfc := sub.Name, sub.Impl, sub.Interface
	c.mu.Lock()
	if c.meta.Flags.Private() && !isClone {
		c.mu.Unlock()
		// "A class object whose Derive() function is empty is said to
		// be Private" (§2.1.2).
		return Made{}, fmt.Errorf("class %s is Private: Derive is empty", c.meta.Name)
	}
	selfL := c.meta.Self
	parentName := c.meta.Name
	parentParts := append([]string(nil), c.meta.ImplParts...)
	parentIfc := c.meta.InstanceInterface.Clone("")
	parentSched := c.meta.DefaultSchedulingAgent
	parentMags := c.meta.DefaultMagistrates
	c.mu.Unlock()

	if name == "" {
		return Made{}, fmt.Errorf("class %s: Derive needs a subclass name", parentName)
	}
	// Obtain a unique Class Identifier from LegionClass, which records
	// that we are responsible for locating the new class (§4.1.3).
	newID, err := NewClassID.Call(ctx, c.obj.Caller().To(loid.LegionClass), selfL, name)
	if err != nil {
		return Made{}, fmt.Errorf("class %s: NewClassID: %w", parentName, err)
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
			return Made{}, err
		}
	}
	childMeta := &Meta{
		Self:                   loid.New(newID, 0, loid.DeriveKey(fmt.Sprintf("class/%s/%d", name, newID))),
		Name:                   name,
		Super:                  selfL,
		Flags:                  sub.Flags,
		ImplParts:              childParts,
		InstanceInterface:      childIfc,
		DefaultSchedulingAgent: parentSched,
		DefaultMagistrates:     parentMags,
	}
	if err := childMeta.Validate(); err != nil {
		return Made{}, err
	}
	childImpl, err := NewClassImpl(childMeta)
	if err != nil {
		return Made{}, err
	}
	childState, err := childImpl.SaveState()
	if err != nil {
		return Made{}, err
	}

	c.mu.Lock()
	mag, err := c.pickMagistrateLocked(sub.MagistrateHint)
	c.mu.Unlock()
	if err != nil {
		return Made{}, err
	}
	bs, err := c.instantiate(ctx, mag, []magistrate.Instance{{Object: childMeta.Self, Impl: ImplName, State: childState}})
	b := bs[0]
	if b.Address.IsZero() {
		return Made{}, fmt.Errorf("class %s: instantiate subclass %s: %w", parentName, name, err)
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
	return Made{childMeta.Self, b}, nil
}

// inheritFrom implements the class-mandatory InheritFrom() (§2.1):
// "this function does not cause any new objects to be created; instead,
// it serves to alter the composition of future instances of the class."
func (c *ClassImpl) inheritFrom(ctx context.Context, base loid.LOID) (rt.Void, error) {
	c.mu.Lock()
	if c.meta.Flags.Fixed() {
		name := c.meta.Name
		c.mu.Unlock()
		// "A class object whose InheritFrom() function is empty is said
		// to be Fixed" (§2.1.2).
		return rt.Void{}, fmt.Errorf("class %s is Fixed: InheritFrom is empty", name)
	}
	name := c.meta.Name
	c.mu.Unlock()

	// Ask the base class how its instances are composed.
	comp, err := DescribeInstances.Call(ctx, c.obj.Caller().To(base))
	if err != nil {
		return rt.Void{}, fmt.Errorf("class %s: describe base %v: %w", name, base, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// "This causes B's member functions to be added to C's interface."
	// Existing methods win (first base wins), matching the composite
	// dispatch order.
	if err := c.meta.InstanceInterface.Merge(comp.Interface, idl.ConflictKeep); err != nil {
		return rt.Void{}, err
	}
	for _, p := range comp.Parts {
		if !contains(c.meta.ImplParts, p) {
			c.meta.ImplParts = append(c.meta.ImplParts, p)
		}
	}
	if !containsLOID(c.meta.Bases, base) {
		c.meta.Bases = append(c.meta.Bases, base)
	}
	return rt.Void{}, nil
}

func (c *ClassImpl) deleteObject(ctx context.Context, l loid.LOID) (rt.Void, error) {
	c.mu.Lock()
	row, ok := c.table[l.Ident()]
	if !ok {
		name := c.meta.Name
		c.mu.Unlock()
		return rt.Void{}, fmt.Errorf("class %s: unknown object %v", name, l)
	}
	mags := append([]loid.LOID(nil), row.CurrentMagistrates...)
	delete(c.table, l.Ident())
	c.mu.Unlock()
	push(c, InvalidateLOID, func() []loid.LOID { return []loid.LOID{l} })
	// Tell every holding magistrate to remove Active and Inert copies
	// (§3.8 Delete).
	var firstErr error
	for _, mag := range mags {
		if _, err := magistrate.Delete.Call(ctx, c.obj.Caller().To(mag), l); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return rt.Void{}, firstErr
}

// bindingFor implements the class side of the binding mechanism
// (§4.1.2): answer from the logical table's Object Address field, or
// consult the object's Magistrate — activating the object if need be.
// It returns a binding for l, treating staleAddr (if non-zero) as
// known-bad. ctx carries the original caller's remaining deadline
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
		b, err := magistrate.Activate.Call(ctx, c.obj.Caller().To(mag), l, loid.Nil)
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
		push(c, AddBinding, func() []binding.Binding { return []binding.Binding{b} })
		return b, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no current magistrate")
	}
	return binding.Binding{}, fmt.Errorf("class %s: cannot bind %v: %w", name, l, lastErr)
}

func (c *ClassImpl) info(context.Context) (Summary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{Name: c.meta.Name, ClassID: c.meta.Self.ClassID, Super: c.meta.Super, Flags: c.meta.Flags}
	for _, row := range c.table {
		if row.IsSubclass {
			s.Subclasses++
		} else {
			s.Instances++
		}
	}
	return s, nil
}

// registerInstances records (or, for mustExist, updates) instances
// started out-of-band — the §4.2.1 bootstrap path where Host Objects
// and Magistrates "contact the existing class object ... to tell it of
// their existence", and the §4.1.4 address-propagation path, where a
// Magistrate reports a set. With mustExist, an unknown instance is
// left out, the rest are updated, and the error names the first one.
func (c *ClassImpl) registerInstances(bs []binding.Binding, mustExist bool) (rt.Void, error) {
	var unknown error
	c.mu.Lock()
	bs = slices.DeleteFunc(bs, func(b binding.Binding) bool {
		row, ok := c.table[b.LOID.Ident()]
		if !ok && mustExist {
			if unknown == nil {
				unknown = fmt.Errorf("class %s: unknown object %v", c.meta.Name, b.LOID)
			}
			return true
		}
		if !ok {
			row = &Row{SchedulingAgent: c.meta.DefaultSchedulingAgent}
			c.table[b.LOID.Ident()] = row
		}
		row.Address = b.Address
		return false
	})
	c.mu.Unlock()
	push(c, AddBinding, func() []binding.Binding { return bs })
	return rt.Void{}, unknown
}

func (c *ClassImpl) notifyDeactivated(_ context.Context, l loid.LOID) (rt.Void, error) {
	c.mu.Lock()
	if row, ok := c.table[l.Ident()]; ok {
		row.Address = oa.Address{}
	}
	c.mu.Unlock()
	push(c, InvalidateLOID, func() []loid.LOID { return []loid.LOID{l} })
	return rt.Void{}, nil
}

// clone implements the hot-class relief of §5.2.2: "the cloned class is
// derived from the heavily used class without changing the interface in
// any way."
func (c *ClassImpl) clone(ctx context.Context, magHint loid.LOID) (Made, error) {
	c.mu.Lock()
	name := fmt.Sprintf("%s-clone%d", c.meta.Name, len(c.table))
	c.mu.Unlock()
	return c.deriveClass(ctx, Subclass{Name: name, MagistrateHint: magHint}, true)
}

func (c *ClassImpl) getRow(_ context.Context, l loid.LOID) (RowInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.table[l.Ident()]
	if !ok {
		return RowInfo{}, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
	}
	return RowInfo{row.Address, row.CurrentMagistrates, row.SchedulingAgent, row.CandidateMagistrates, row.IsSubclass}, nil
}

// updateRow applies set to l's row. The row's lists are replaced,
// never written into: rows share them.
func (c *ClassImpl) updateRow(l loid.LOID, set func(*Row)) (rt.Void, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.table[l.Ident()]
	if !ok {
		return rt.Void{}, fmt.Errorf("class %s: unknown object %v", c.meta.Name, l)
	}
	set(row)
	return rt.Void{}, nil
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
	var w wire.Writer
	c.meta.marshal(&w)
	w.Count64(len(c.table))
	for id, row := range c.table {
		marshalRow(&w, id.LOID(), row)
	}
	return w.Bytes(), nil
}

// RestoreState implements rt.Impl.
func (c *ClassImpl) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	r := wire.NewReader(state)
	meta, err := unmarshalMeta(&r)
	if err != nil {
		return err
	}
	// Each row carries at least one LOID.
	n := r.Count64(loid.EncodedSize)
	table := make(map[loid.Ident]*Row, n)
	for i := 0; i < n; i++ {
		l, row := unmarshalRow(&r)
		// Restored rows share the class's default list like live ones.
		if slices.Equal(row.CandidateMagistrates, meta.DefaultMagistrates) {
			row.CandidateMagistrates = meta.DefaultMagistrates
		}
		table[l.Ident()] = row
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("class: %w", err)
	}
	c.mu.Lock()
	c.meta = meta
	c.table = table
	c.mu.Unlock()
	return nil
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
