package magistrate

import (
	"context"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/rt"
)

// Client is a Magistrate handle. Calls go through the method
// descriptors (Activate.Call(ctx, cl.Ref, ...)); the wrappers below
// keep the benchmark module compiling until it can change with them
// (ROADMAP item 13).
type Client struct{ rt.Ref }

// NewClient refers to the Magistrate m through c (ROADMAP item 13).
func NewClient(c *rt.Caller, m loid.LOID) *Client { return &Client{c.To(m)} }

// ListHosts is ListHosts.Call without a deadline (ROADMAP item 13).
func (cl *Client) ListHosts() ([]loid.LOID, error) {
	return ListHosts.Call(context.Background(), cl.Ref)
}

// ListObjects is ListObjects.Call without a deadline (ROADMAP item 13).
func (cl *Client) ListObjects() ([]loid.LOID, error) {
	return ListObjects.Call(context.Background(), cl.Ref)
}

// Deactivate is Deactivate.Call without a deadline (ROADMAP item 13).
func (cl *Client) Deactivate(l loid.LOID) error {
	_, err := Deactivate.Call(context.Background(), cl.Ref, l)
	return err
}

// Activate is Activate.Call without a deadline (ROADMAP item 13).
func (cl *Client) Activate(l, hostHint loid.LOID) (binding.Binding, error) {
	return Activate.Call(context.Background(), cl.Ref, l, hostHint)
}
