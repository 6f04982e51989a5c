package host

import (
	"context"

	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
)

// Client is a Host Object handle. Calls go through the method
// descriptors (StartObjects.Call(ctx, cl.Ref, set)); the wrappers below
// keep the benchmark module compiling until it can change with them
// (ROADMAP item 13).
type Client struct{ rt.Ref }

// NewClient refers to the Host Object h through c (ROADMAP item 13).
func NewClient(c *rt.Caller, h loid.LOID) *Client { return &Client{c.To(h)} }

// StartObject is StartObjects.Call of a set of one without a deadline
// (ROADMAP item 13).
func (cl *Client) StartObject(l loid.LOID, impl string, state []byte) (uint64, error) {
	return StartObjects.Call(context.Background(), cl.Ref, []persist.OPR{{LOID: l, Impl: impl, State: state}})
}

// StopObject is StopObject.Call without a deadline (ROADMAP item 13).
func (cl *Client) StopObject(l loid.LOID) ([]byte, string, error) {
	s, err := StopObject.Call(context.Background(), cl.Ref, l)
	return s.State, s.Impl, err
}
