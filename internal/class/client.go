package class

import (
	"context"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/rt"
)

// Client is a class-object handle. Calls go through the method
// descriptors (Create.Call(ctx, cl.Ref, ...)); the wrappers below keep
// the benchmark module compiling until it can change with them
// (ROADMAP item 13).
type Client struct{ rt.Ref }

// NewClient refers to the class object cls through c (ROADMAP item 13).
func NewClient(c *rt.Caller, cls loid.LOID) *Client { return &Client{c.To(cls)} }

// Class is the class object's LOID (ROADMAP item 13).
func (cl *Client) Class() loid.LOID { return cl.Target }

// Create is Create.Call without a deadline (ROADMAP item 13).
func (cl *Client) Create(initState []byte, magistrateHint, hostHint loid.LOID) (loid.LOID, binding.Binding, error) {
	m, err := Create.Call(context.Background(), cl.Ref, initState, magistrateHint, hostHint)
	return m.LOID, m.Binding, err
}

// Derive is Derive.Call without a deadline (ROADMAP item 13).
func (cl *Client) Derive(name, impl string, ifc *idl.Interface, flags Flags, magistrateHint loid.LOID) (loid.LOID, binding.Binding, error) {
	m, err := Derive.Call(context.Background(), cl.Ref, Subclass{name, impl, ifc, flags, magistrateHint})
	return m.LOID, m.Binding, err
}

// GetBinding is GetBinding.Call without a deadline (ROADMAP item 13).
func (cl *Client) GetBinding(l loid.LOID) (binding.Binding, error) {
	return GetBinding.Call(context.Background(), cl.Ref, l)
}

// SetDefaultMagistrates is SetDefaultMagistrates.Call without a
// deadline (ROADMAP item 13).
func (cl *Client) SetDefaultMagistrates(mags []loid.LOID) error {
	_, err := SetDefaultMagistrates.Call(context.Background(), cl.Ref, mags)
	return err
}
