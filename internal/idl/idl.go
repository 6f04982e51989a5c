// Package idl implements Legion interface descriptions (§2): the
// complete set of method signatures that describes an object's
// interface, inherited from its class. Interfaces are first-class,
// mergeable values — the run-time multiple inheritance of §2.1
// (InheritFrom) is implemented as interface merging — and have a
// textual form in a small Interface Description Language, standing in
// for the paper's CORBA IDL / MPL support.
package idl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/wire"
)

// Type enumerates the wire types a parameter may have; they correspond
// one-to-one to the codecs in internal/wire.
type Type string

const (
	TInt64   Type = "int64"
	TUint64  Type = "uint64"
	TString  Type = "string"
	TBool    Type = "bool"
	TBytes   Type = "bytes"
	TLOID    Type = "loid"
	TAddress Type = "address"
	TBinding Type = "binding"
	TTime    Type = "time"
)

var validTypes = map[Type]bool{
	TInt64: true, TUint64: true, TString: true, TBool: true, TBytes: true,
	TLOID: true, TAddress: true, TBinding: true, TTime: true,
}

// ValidType reports whether t is a known parameter type.
func ValidType(t Type) bool { return validTypes[t] }

// Param is one named, typed parameter or result.
type Param struct {
	Name string
	Type Type
}

// MethodSig is the signature of one member function: its name,
// parameters, and results.
type MethodSig struct {
	Name    string
	Params  []Param
	Returns []Param
	// OneWay marks methods that never produce a reply.
	OneWay bool
}

// Equal reports whether two signatures are identical.
func (m MethodSig) Equal(o MethodSig) bool {
	if m.Name != o.Name || m.OneWay != o.OneWay ||
		len(m.Params) != len(o.Params) || len(m.Returns) != len(o.Returns) {
		return false
	}
	for i := range m.Params {
		if m.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range m.Returns {
		if m.Returns[i] != o.Returns[i] {
			return false
		}
	}
	return true
}

// String renders the signature in IDL syntax.
func (m MethodSig) String() string {
	var sb strings.Builder
	if m.OneWay {
		sb.WriteString("oneway ")
	}
	sb.WriteString(m.Name)
	sb.WriteByte('(')
	for i, p := range m.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s %s", p.Name, p.Type)
	}
	sb.WriteByte(')')
	if len(m.Returns) > 0 {
		sb.WriteString(" returns (")
		for i, p := range m.Returns {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %s", p.Name, p.Type)
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// Validate checks that the signature is well formed.
func (m MethodSig) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("idl: method with empty name")
	}
	if m.OneWay && len(m.Returns) > 0 {
		return fmt.Errorf("idl: oneway method %s declares results", m.Name)
	}
	for _, p := range append(append([]Param{}, m.Params...), m.Returns...) {
		if p.Name == "" {
			return fmt.Errorf("idl: method %s has unnamed parameter", m.Name)
		}
		if !ValidType(p.Type) {
			return fmt.Errorf("idl: method %s parameter %s has unknown type %q", m.Name, p.Name, p.Type)
		}
	}
	return nil
}

// Interface is a named set of method signatures. The zero value is an
// empty, unnamed interface.
type Interface struct {
	Name    string
	methods map[string]MethodSig
	order   []string // insertion order, for stable formatting
}

// NewInterface builds an interface from signatures; it panics on a
// malformed or duplicate signature, since interface literals are
// programmer-authored constants.
func NewInterface(name string, sigs ...MethodSig) *Interface {
	in := &Interface{Name: name, methods: map[string]MethodSig{}}
	for _, s := range sigs {
		if err := s.Validate(); err != nil {
			panic(err)
		}
		if err := in.add(s, ConflictError); err != nil {
			panic(err)
		}
	}
	return in
}

// ConflictPolicy governs what Merge does when both interfaces define a
// method of the same name with different signatures.
type ConflictPolicy int

const (
	// ConflictError rejects the merge.
	ConflictError ConflictPolicy = iota
	// ConflictKeep keeps the existing signature (first base wins —
	// C++-like MI resolution order).
	ConflictKeep
	// ConflictOverride takes the incoming signature (explicit
	// re-inheritance, §2.1.3: classes may "re-inherit" implementations
	// from other classes).
	ConflictOverride
)

func (in *Interface) ensure() {
	if in.methods == nil {
		in.methods = map[string]MethodSig{}
	}
}

func (in *Interface) add(s MethodSig, policy ConflictPolicy) error {
	in.ensure()
	if old, ok := in.methods[s.Name]; ok {
		if old.Equal(s) {
			return nil
		}
		switch policy {
		case ConflictKeep:
			return nil
		case ConflictOverride:
			in.methods[s.Name] = s
			return nil
		default:
			return fmt.Errorf("idl: conflicting signatures for %s: %q vs %q", s.Name, old, s)
		}
	}
	in.methods[s.Name] = s
	in.order = append(in.order, s.Name)
	return nil
}

// Add inserts one validated signature, erroring on conflict.
func (in *Interface) Add(s MethodSig) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return in.add(s, ConflictError)
}

// Lookup finds a method by name.
func (in *Interface) Lookup(name string) (MethodSig, bool) {
	if in == nil || in.methods == nil {
		return MethodSig{}, false
	}
	s, ok := in.methods[name]
	return s, ok
}

// Has reports whether the interface exports the named method.
func (in *Interface) Has(name string) bool {
	_, ok := in.Lookup(name)
	return ok
}

// Methods returns the signatures in insertion order.
func (in *Interface) Methods() []MethodSig {
	if in == nil {
		return nil
	}
	out := make([]MethodSig, 0, len(in.order))
	for _, name := range in.order {
		out = append(out, in.methods[name])
	}
	return out
}

// Len returns the number of methods.
func (in *Interface) Len() int {
	if in == nil {
		return 0
	}
	return len(in.order)
}

// Clone returns a deep copy, optionally renamed (empty keeps the name).
func (in *Interface) Clone(newName string) *Interface {
	out := &Interface{Name: in.Name, methods: map[string]MethodSig{}}
	if newName != "" {
		out.Name = newName
	}
	for _, name := range in.order {
		out.methods[name] = in.methods[name]
		out.order = append(out.order, name)
	}
	return out
}

// Merge adds every method of other to in under the given conflict
// policy. This is the mechanism behind InheritFrom (§2.1): "B's member
// functions [are] added to C's interface."
func (in *Interface) Merge(other *Interface, policy ConflictPolicy) error {
	if other == nil {
		return nil
	}
	for _, s := range other.Methods() {
		if err := in.add(s, policy); err != nil {
			return err
		}
	}
	return nil
}

// Equal reports whether two interfaces export exactly the same method
// set (names and signatures; declaration order and interface name are
// not significant).
func (in *Interface) Equal(other *Interface) bool {
	if in.Len() != other.Len() {
		return false
	}
	for _, s := range in.Methods() {
		o, ok := other.Lookup(s.Name)
		if !ok || !o.Equal(s) {
			return false
		}
	}
	return true
}

// Format renders the interface in canonical IDL text, methods sorted by
// name for reproducibility.
func (in *Interface) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "interface %s {\n", in.Name)
	sigs := in.Methods()
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].Name < sigs[j].Name })
	for _, s := range sigs {
		fmt.Fprintf(&sb, "\t%s;\n", s)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// Marshal appends a binary encoding of the interface to dst, for
// GetInterface() replies.
func (in *Interface) Marshal(dst []byte) []byte {
	w := wire.NewWriter(dst)
	w.Str32(in.Name)
	w.Count32(in.Len())
	for _, s := range in.Methods() {
		w.Str32(s.Name)
		w.Bool(s.OneWay)
		writeParams(&w, s.Params)
		writeParams(&w, s.Returns)
	}
	return w.Bytes()
}

// Limits on a decoded interface.
const (
	maxMethods = 1 << 16
	maxParams  = 1 << 12
	maxStr     = 1 << 20
)

// Unmarshal decodes an interface from the front of src, returning the
// remainder.
func Unmarshal(src []byte) (*Interface, []byte, error) {
	r := wire.NewReader(src)
	in := &Interface{Name: r.Str32(maxStr), methods: map[string]MethodSig{}}
	// A method is at least its name length, flag and two param counts.
	n := r.Count32(13)
	if n > maxMethods {
		r.Fail(fmt.Errorf("method count %d exceeds limit", n))
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		s := MethodSig{Name: r.Str32(maxStr), OneWay: r.U8() == 1, Params: readParams(&r), Returns: readParams(&r)}
		if r.Err() == nil {
			r.Fail(in.add(s, ConflictError))
		}
	}
	if err := r.Err(); err != nil {
		return nil, r.Rest(), fmt.Errorf("idl: %w", err)
	}
	return in, r.Rest(), nil
}

func writeParams(w *wire.Writer, ps []Param) {
	w.Count32(len(ps))
	for _, p := range ps {
		w.Str32(p.Name)
		w.Str32(string(p.Type))
	}
}

func readParams(r *wire.Reader) []Param {
	n := r.Count32(8)
	if n > maxParams {
		r.Fail(fmt.Errorf("param count %d exceeds limit", n))
		return nil
	}
	var ps []Param
	for i := 0; i < n; i++ {
		ps = append(ps, Param{Name: r.Str32(maxStr), Type: Type(r.Str32(maxStr))})
	}
	return ps
}
