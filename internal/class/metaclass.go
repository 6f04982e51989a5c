package class

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// LegionClass's remote methods beyond the ordinary class-mandatory
// ones: the Class Identifier authority and the responsibility-pair
// registry of §4.1.3.
var (
	NewClassID       = rt.M2("NewClassID", rt.LOIDParam("creator"), rt.StringParam("name"), rt.Uint64Param("classID"))
	WhoIsResponsible = rt.M1("WhoIsResponsible", rt.LOIDParam("class"), rt.LOIDParam("creator"))
	LocateClass      = rt.M1("LocateClass", rt.LOIDParam("class"), rt.Struct(
		rt.Field(rt.BoolParam("direct"), func(l *Location) *bool { return &l.Direct }),
		rt.Field(rt.BindingParam("b"), func(l *Location) *binding.Binding { return &l.Binding }),
		rt.Field(rt.LOIDParam("responsible"), func(l *Location) *loid.LOID { return &l.Responsible })))
	RegisterClassBinding = rt.M2("RegisterClassBinding", rt.LOIDParam("class"), rt.AddressParam("addr"), rt.None)
)

// Location is one step of the recursive class location of §4.1.3:
// either a direct binding, or the responsible class to recurse
// through.
type Location struct {
	Direct      bool
	Binding     binding.Binding
	Responsible loid.LOID
}

var metaServer = rt.NewServer("LegionClassMeta", append(
	rt.Embed(server, func(m *Metaclass) *ClassImpl { return m.ClassImpl }),
	rt.Serve2(NewClassID, (*Metaclass).newClassID),
	rt.Serve1(WhoIsResponsible, (*Metaclass).whoIsResponsible),
	rt.Serve1(LocateClass, (*Metaclass).locateClass),
	rt.Serve2(RegisterClassBinding, (*Metaclass).registerClassBinding),
)...)

// MetaInterface is the member-function set of LegionClass.
var MetaInterface = metaServer.Interface()

// Metaclass is LegionClass: the single logical class object from which
// all classes are eventually derived. It hands out unique Class
// Identifiers, maintains the ⟨responsible, class⟩ pairs used to locate
// class objects, and is the terminal authority of the recursive class
// location procedure (§4.1.3). It embeds the generic ClassImpl so it
// also behaves as an ordinary (Abstract) class object.
type Metaclass struct {
	*ClassImpl

	mu       sync.Mutex
	nextID   uint64
	pairs    map[loid.LOID]loid.LOID // class -> responsible creator
	bindings map[loid.LOID]oa.Address
	names    map[uint64]string // class id -> name, for diagnostics
}

// NewMetaclass builds LegionClass. Its own binding and those of the
// other core Abstract classes are registered at bootstrap via
// RegisterClassBinding (§4.2.1: "the Abstract class objects are
// started exactly once — when the Legion system comes alive").
func NewMetaclass() (*Metaclass, error) {
	// LegionClass is Abstract (no direct instances) and, in this
	// implementation, Private: new classes are derived from
	// LegionObject or below, never from the metaclass itself — a class
	// deriving from its own identity would self-deadlock on the
	// NewClassID call.
	impl, err := NewClassImpl(&Meta{
		Self:  loid.New(loid.ClassIDLegionClass, 0, loid.DeriveKey("class/LegionClass")),
		Name:  "LegionClass",
		Super: loid.LegionObject,
		Flags: FlagAbstract | FlagPrivate,
	})
	if err != nil {
		return nil, err
	}
	return &Metaclass{
		ClassImpl: impl,
		nextID:    loid.FirstUserClassID,
		pairs:     make(map[loid.LOID]loid.LOID),
		bindings:  make(map[loid.LOID]oa.Address),
		names:     make(map[uint64]string),
	}, nil
}

// Interface implements rt.Impl.
func (m *Metaclass) Interface() *idl.Interface { return MetaInterface }

// Dispatch implements rt.Impl.
func (m *Metaclass) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	return metaServer.Dispatch(m, inv)
}

// newClassID allocates a fresh Class Identifier and records the
// responsibility pair ⟨creator, new class⟩ (§4.1.3: "When a new class
// object D is created, the creating class C contacts LegionClass for a
// new Class Identifier ... At this time, LegionClass can record that C
// is responsible for locating D").
func (m *Metaclass) newClassID(_ context.Context, creator loid.LOID, name string) (uint64, error) {
	if creator.IsNil() {
		return 0, fmt.Errorf("LegionClass: NewClassID needs a creator")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.names[id] = name
	m.pairs[loid.LOID{ClassID: id}] = creator.ID()
	return id, nil
}

func (m *Metaclass) whoIsResponsible(_ context.Context, cl loid.LOID) (loid.LOID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	creator, ok := m.pairs[cl.ID()]
	if !ok {
		return loid.Nil, fmt.Errorf("LegionClass: no responsibility pair for %v", cl)
	}
	return creator, nil
}

// locateClass is the agent-facing class location step (§4.1.3): for a
// class LegionClass holds a binding for, answer (direct=true, binding);
// otherwise answer (direct=false, responsible) and the caller recurses.
func (m *Metaclass) locateClass(_ context.Context, cl loid.LOID) (Location, error) {
	if !cl.IsClass() {
		return Location{}, fmt.Errorf("LegionClass: %v is not a class LOID", cl)
	}
	m.mu.Lock()
	addr, direct := m.bindings[cl.ID()]
	creator, hasPair := m.pairs[cl.ID()]
	m.mu.Unlock()
	if direct {
		return Location{Direct: true, Binding: binding.Forever(cl, addr)}, nil
	}
	if hasPair {
		return Location{Responsible: creator}, nil
	}
	return Location{}, fmt.Errorf("LegionClass: unknown class %v", cl)
}

// registerClassBinding records where a class object is reachable.
// Bootstrap uses it for the core Abstract classes; class objects also
// refresh their own entry here if they migrate ("class bindings change
// very slowly", §5.2.2).
func (m *Metaclass) registerClassBinding(_ context.Context, cl loid.LOID, addr oa.Address) (rt.Void, error) {
	if !cl.IsClass() {
		return rt.Void{}, fmt.Errorf("LegionClass: %v is not a class LOID", cl)
	}
	m.mu.Lock()
	m.bindings[cl.ID()] = addr
	m.mu.Unlock()
	return rt.Void{}, nil
}

// SaveState implements rt.Impl: LegionClass persists its allocation
// counter, pairs, direct bindings, and its inherited class state.
func (m *Metaclass) SaveState() ([]byte, error) {
	base, err := m.ClassImpl.SaveState()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var w wire.Writer
	w.U64(m.nextID)
	w.Count64(len(m.pairs))
	for cl, creator := range m.pairs {
		w.LOID(cl)
		w.LOID(creator)
	}
	w.Count64(len(m.bindings))
	for cl, addr := range m.bindings {
		w.LOID(cl)
		w.Address(addr)
	}
	w.Count64(len(m.names))
	for id, name := range m.names {
		w.U64(id)
		w.Str32(name)
	}
	w.Bytes32(base)
	return w.Bytes(), nil
}

// RestoreState implements rt.Impl.
func (m *Metaclass) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	r := wire.NewReader(state)
	nextID := r.U64()
	np := r.Count64(2 * loid.EncodedSize)
	pairs := make(map[loid.LOID]loid.LOID, np)
	for i := 0; i < np; i++ {
		cl := r.LOID()
		pairs[cl] = r.LOID()
	}
	nb := r.Count64(loid.EncodedSize)
	bindings := make(map[loid.LOID]oa.Address, nb)
	for i := 0; i < nb; i++ {
		cl := r.LOID()
		bindings[cl] = r.Address()
	}
	nn := r.Count64(12)
	names := make(map[uint64]string, nn)
	for i := 0; i < nn; i++ {
		id := r.U64()
		names[id] = r.Str32(maxField)
	}
	base := r.Bytes32(maxField)
	if err := r.Done(); err != nil {
		return fmt.Errorf("class: %w", err)
	}
	if err := m.ClassImpl.RestoreState(base); err != nil {
		return err
	}
	m.mu.Lock()
	m.nextID = nextID
	m.pairs = pairs
	m.bindings = bindings
	m.names = names
	m.mu.Unlock()
	return nil
}

// ForgetBindings drops every direct class binding while keeping the
// Class Identifier counter, responsibility pairs, and names. A restored
// metaclass in a fresh process calls this before bootstrap re-registers
// the core classes at their new addresses: a stale direct binding would
// be served verbatim by LocateClass, whereas a missing one routes the
// lookup through the responsibility pair — which ends at a class object
// that can consult its Magistrate and reactivate.
func (m *Metaclass) ForgetBindings() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bindings = make(map[loid.LOID]oa.Address)
}

// ClassName reports the registered name for a class id (diagnostics).
func (m *Metaclass) ClassName(id uint64) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.names[id]
	return n, ok
}
