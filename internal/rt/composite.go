package rt

import (
	"fmt"

	"repro/internal/idl"
	"repro/internal/wire"
)

// Composite combines several implementation parts into one object
// behaviour. It realizes the paper's run-time multiple inheritance
// (§2.1): a class defined by Derive() plus InheritFrom() calls produces
// instances "whose composition reflects the way the class was defined
// in the inheritance process" — here, an ordered list of parts, each
// contributing the methods its interface declares. The first part that
// exports a method handles it (first-base-wins resolution, matching
// idl.ConflictKeep merging).
type Composite struct {
	parts []Impl
	iface *idl.Interface
}

// NewComposite builds a composite over parts (at least one). The
// combined interface is the Keep-merge of the parts' interfaces in
// order.
func NewComposite(name string, parts ...Impl) (*Composite, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("rt: composite needs at least one part")
	}
	iface := idl.NewInterface(name)
	for _, p := range parts {
		if err := iface.Merge(p.Interface(), idl.ConflictKeep); err != nil {
			return nil, err
		}
	}
	return &Composite{parts: parts, iface: iface}, nil
}

// Interface implements Impl.
func (c *Composite) Interface() *idl.Interface { return c.iface }

// Parts returns the ordered implementation parts.
func (c *Composite) Parts() []Impl { return c.parts }

// Dispatch implements Impl: the first part whose interface exports the
// method serves it.
func (c *Composite) Dispatch(inv *Invocation) ([][]byte, error) {
	for _, p := range c.parts {
		if p.Interface().Has(inv.Method) {
			return p.Dispatch(inv)
		}
	}
	// Fall through to any part that accepts it dynamically (parts with
	// open-ended dispatch); otherwise report no such method.
	return nil, &NoSuchMethodError{Method: inv.Method}
}

// SaveState implements Impl: the composite state is the length-prefixed
// concatenation of the parts' states.
func (c *Composite) SaveState() ([]byte, error) {
	var w wire.Writer
	w.Count32(len(c.parts))
	for i, p := range c.parts {
		s, err := p.SaveState()
		if err != nil {
			return nil, fmt.Errorf("rt: composite part %d: %w", i, err)
		}
		w.Bytes64(s)
	}
	return w.Bytes(), nil
}

// RestoreState implements Impl. An empty state leaves all parts at
// their initial state (fresh creation).
func (c *Composite) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	r := wire.NewReader(state)
	if n := r.U32(); r.Err() == nil && int(n) != len(c.parts) {
		return fmt.Errorf("rt: composite state has %d parts, impl has %d", n, len(c.parts))
	}
	parts := make([][]byte, len(c.parts))
	for i := range parts {
		parts[i] = r.Bytes64(wire.NoCap)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("rt: composite state: %w", err)
	}
	for i, s := range parts {
		if err := c.parts[i].RestoreState(s); err != nil {
			return fmt.Errorf("rt: composite part %d: %w", i, err)
		}
	}
	return nil
}

// Bind implements Binder by forwarding to every part that wants it.
func (c *Composite) Bind(o *Object) {
	for _, p := range c.parts {
		if b, ok := p.(Binder); ok {
			b.Bind(o)
		}
	}
}

// Stop implements Stopper by forwarding to every part that wants it.
func (c *Composite) Stop() {
	for _, p := range c.parts {
		if s, ok := p.(Stopper); ok {
			s.Stop()
		}
	}
}
