package bindagent

import (
	"context"
	"sync/atomic"

	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
)

// Client is an rt.Resolver backed by a Binding Agent: the form every
// object's communication layer uses. The agent is reached by explicit
// Object Address — "the persistent state of each Legion object contains
// the Object Address of its Binding Agent" (§3.6) — so resolution never
// needs resolution. Other calls go through the method descriptors
// (CacheStats.Call(ctx, cl.Ref(), ...)).
type Client struct {
	caller    atomic.Pointer[rt.Caller]
	newCaller func() *rt.Caller // builds caller on first use (NewLazyClient)
	agent     loid.LOID
	addr      oa.Address
}

// NewClient builds a resolver that consults the agent at addr, making
// calls through caller (ROADMAP item 13 keeps the name).
func NewClient(caller *rt.Caller, agent loid.LOID, addr oa.Address) *Client {
	c := &Client{agent: agent, addr: addr}
	c.caller.Store(caller)
	return c
}

// NewLazyClient is NewClient with the caller newCaller builds on the
// client's first call: an object whose bindings all come from its own
// cache never needs one.
func NewLazyClient(newCaller func() *rt.Caller, agent loid.LOID, addr oa.Address) *Client {
	return &Client{newCaller: newCaller, agent: agent, addr: addr}
}

// Ref refers to the agent at its address, through the client's caller,
// building the caller on first use: concurrent first users race one CAS
// and all get the winner.
func (c *Client) Ref() rt.Ref {
	rc := c.caller.Load()
	if rc == nil {
		if rc = c.newCaller(); !c.caller.CompareAndSwap(nil, rc) {
			rc = c.caller.Load()
		}
	}
	return rc.At(c.addr, c.agent)
}

// ResolveCtx implements rt.Resolver via GetBinding(LOID): the caller's
// remaining deadline and trace identity propagate into the agent hop.
func (c *Client) ResolveCtx(ctx context.Context, l loid.LOID) (binding.Binding, error) {
	return GetBinding.Call(ctx, c.Ref(), l)
}

// RefreshCtx implements rt.Resolver via the GetBinding(binding)
// overload.
func (c *Client) RefreshCtx(ctx context.Context, stale binding.Binding) (binding.Binding, error) {
	return RebindStale.Call(ctx, c.Ref(), stale)
}

// Resolve is ResolveCtx without a deadline (ROADMAP item 13).
func (c *Client) Resolve(l loid.LOID) (binding.Binding, error) {
	return c.ResolveCtx(context.Background(), l)
}

// Refresh is RefreshCtx without a deadline (ROADMAP item 13).
func (c *Client) Refresh(stale binding.Binding) (binding.Binding, error) {
	return c.RefreshCtx(context.Background(), stale)
}

// InvalidateLOID is class.InvalidateLOID.Call of a set of one, without
// a deadline (ROADMAP item 13).
func (c *Client) InvalidateLOID(l loid.LOID) error {
	_, err := class.InvalidateLOID.Call(context.Background(), c.Ref(), []loid.LOID{l})
	return err
}

// CacheStats is CacheStats.Call without a deadline (ROADMAP item 13).
func (c *Client) CacheStats() (hits, misses uint64, err error) {
	st, err := CacheStats.Call(context.Background(), c.Ref())
	return st.Hits, st.Misses, err
}
