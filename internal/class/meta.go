// Package class implements Legion class objects (§2.1, §3.7): the
// objects that create, locate, and delete their instances and
// subclasses. Every class exports the class-mandatory member functions
// Create(), Derive(), InheritFrom(), Delete(), GetBinding(), and
// GetInterface(); each class logically maintains the table of Fig 16
// (Object Address, Current Magistrate List, Scheduling Agent, Candidate
// Magistrate List); and LegionClass — the metaclass, itself a class
// object — hands out unique Class Identifiers and maintains the
// responsibility pairs used to locate class objects (§4.1.3).
package class

import (
	"fmt"

	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/wire"
)

// Flags mark the special class types of §2.1.2.
type Flags uint64

const (
	// FlagAbstract: Create() is empty; no direct instances can exist.
	FlagAbstract Flags = 1 << iota
	// FlagPrivate: Derive() is empty; no subclasses, just instances.
	FlagPrivate
	// FlagFixed: InheritFrom() is empty; the class inherits only from
	// its superclass.
	FlagFixed
)

func (f Flags) Abstract() bool { return f&FlagAbstract != 0 }
func (f Flags) Private() bool  { return f&FlagPrivate != 0 }
func (f Flags) Fixed() bool    { return f&FlagFixed != 0 }

func (f Flags) String() string {
	s := ""
	if f.Abstract() {
		s += "abstract,"
	}
	if f.Private() {
		s += "private,"
	}
	if f.Fixed() {
		s += "fixed,"
	}
	if s == "" {
		return "none"
	}
	return s[:len(s)-1]
}

// ImplName is the implementation-registry name of the generic class
// object behaviour: class objects are ordinary Legion objects and are
// activated from OPRs like everything else.
const ImplName = "legion.class"

// Row is one logical-table entry (Fig 16) for an instance or subclass.
type Row struct {
	// Address is the Object Address of the object if the class knows
	// it is Active; zero otherwise.
	Address oa.Address
	// CurrentMagistrates lists the Magistrates that hold the object
	// (typically one).
	CurrentMagistrates []loid.LOID
	// SchedulingAgent is the object responsible for scheduling this
	// object (loid.Nil = class default / magistrate default).
	SchedulingAgent loid.LOID
	// CandidateMagistrates lists the Magistrates that may be given
	// responsibility for the object.
	CandidateMagistrates []loid.LOID
	// IsSubclass distinguishes kind-of rows from is-a rows.
	IsSubclass bool
}

// Meta is the persistent identity of a class object: everything needed
// to restore it as an OPR.
type Meta struct {
	// Self is the class object's own LOID ({ClassID, 0, key}).
	Self loid.LOID
	// Name is the human name of the class.
	Name string
	// Super is the superclass (kind-of parent); Nil only for
	// LegionObject, the sink of the kind-of graph.
	Super loid.LOID
	// Flags are the special class types (§2.1.2).
	Flags Flags
	// ImplParts is the ordered implementation composition future
	// instances receive: the class's own implementation followed by
	// those contributed by InheritFrom bases (§2.1).
	ImplParts []string
	// Bases lists the classes this class inherits-from (§2.1.1).
	Bases []loid.LOID
	// Instance interface exported by instances of this class.
	InstanceInterface *idl.Interface
	// NextSeq is the next Class Specific value for instance LOIDs.
	NextSeq uint64
	// DefaultSchedulingAgent is inherited by each of the class's
	// objects unless one is explicitly specified (§3.7).
	DefaultSchedulingAgent loid.LOID
	// DefaultMagistrates are the candidate Magistrates for new
	// objects of this class. The rows of its objects share the list,
	// so it is replaced, never written into.
	DefaultMagistrates []loid.LOID
}

// Validate checks internal consistency.
func (m *Meta) Validate() error {
	if m.Self.IsNil() {
		return fmt.Errorf("class: meta has nil self LOID")
	}
	if !m.Self.IsClass() {
		return fmt.Errorf("class: self %v is not a class LOID", m.Self)
	}
	if m.Name == "" {
		return fmt.Errorf("class: empty class name")
	}
	if !m.Flags.Abstract() && len(m.ImplParts) == 0 {
		return fmt.Errorf("class %s: concrete class needs an implementation", m.Name)
	}
	return nil
}

// maxField bounds a string or blob in class-object state (64 MiB).
const maxField = 64 << 20

// maxImplParts bounds a class's implementation composition.
const maxImplParts = 1 << 16

// marshal/unmarshalMeta encode Meta inside the class state blob.
func (m *Meta) marshal(w *wire.Writer) {
	w.LOID(m.Self)
	w.Str32(m.Name)
	w.LOID(m.Super)
	w.U64(uint64(m.Flags))
	w.Count64(len(m.ImplParts))
	for _, p := range m.ImplParts {
		w.Str32(p)
	}
	writeLOIDs(w, m.Bases)
	ifc := m.InstanceInterface
	if ifc == nil {
		ifc = idl.NewInterface(m.Name)
	}
	w.Bytes32(ifc.Marshal(nil))
	w.U64(m.NextSeq)
	w.LOID(m.DefaultSchedulingAgent)
	writeLOIDs(w, m.DefaultMagistrates)
}

func unmarshalMeta(r *wire.Reader) (*Meta, error) {
	m := &Meta{Self: r.LOID(), Name: r.Str32(maxField), Super: r.LOID(), Flags: Flags(r.U64())}
	np := r.Count64(4)
	if np > maxImplParts {
		return nil, fmt.Errorf("class: %d impl parts exceeds limit", np)
	}
	for i := 0; i < np; i++ {
		m.ImplParts = append(m.ImplParts, r.Str32(maxField))
	}
	m.Bases = readLOIDs(r)
	rawIfc := r.Bytes32(maxField)
	m.NextSeq = r.U64()
	m.DefaultSchedulingAgent = r.LOID()
	m.DefaultMagistrates = readLOIDs(r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("class: %w", err)
	}
	ifc, rest, err := idl.Unmarshal(rawIfc)
	if err != nil {
		return nil, fmt.Errorf("class: instance interface: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("class: trailing interface bytes")
	}
	m.InstanceInterface = ifc
	return m, nil
}

func writeLOIDs(w *wire.Writer, ls []loid.LOID) {
	w.Count64(len(ls))
	for _, l := range ls {
		w.LOID(l)
	}
}

func readLOIDs(r *wire.Reader) []loid.LOID {
	n := r.Count64(loid.EncodedSize)
	out := make([]loid.LOID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.LOID())
	}
	return out
}

func marshalRow(w *wire.Writer, l loid.LOID, row *Row) {
	w.LOID(l)
	w.Address(row.Address)
	writeLOIDs(w, row.CurrentMagistrates)
	w.LOID(row.SchedulingAgent)
	writeLOIDs(w, row.CandidateMagistrates)
	w.Bool(row.IsSubclass)
}

func unmarshalRow(r *wire.Reader) (loid.LOID, *Row) {
	l := r.LOID()
	row := &Row{
		Address:              r.Address(),
		CurrentMagistrates:   readLOIDs(r),
		SchedulingAgent:      r.LOID(),
		CandidateMagistrates: readLOIDs(r),
		IsSubclass:           r.U8() == 1,
	}
	return l, row
}
