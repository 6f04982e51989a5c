package bindagent

import (
	"context"
	"sync/atomic"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Client is an rt.Resolver backed by a Binding Agent: the form every
// object's communication layer uses. The agent is reached by explicit
// Object Address — "the persistent state of each Legion object contains
// the Object Address of its Binding Agent" (§3.6) — so resolution never
// needs resolution.
type Client struct {
	caller    atomic.Pointer[rt.Caller]
	newCaller func() *rt.Caller // builds caller on first use (NewLazyClient)
	agent     loid.LOID
	addr      oa.Address
}

// NewClient builds a resolver that consults the agent at addr, making
// calls through caller.
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

// from returns the caller the client calls the agent through, building
// it on first use: concurrent first users race one CAS and all get the
// winner.
func (c *Client) from() *rt.Caller {
	if rc := c.caller.Load(); rc != nil {
		return rc
	}
	rc := c.newCaller()
	if c.caller.CompareAndSwap(nil, rc) {
		return rc
	}
	return c.caller.Load()
}

// Agent returns the agent's LOID.
func (c *Client) Agent() loid.LOID { return c.agent }

// Resolve is ResolveCtx without a deadline or trace.
func (c *Client) Resolve(l loid.LOID) (binding.Binding, error) {
	return c.ResolveCtx(context.Background(), l)
}

// ResolveCtx implements rt.Resolver via GetBinding(LOID): the caller's
// remaining deadline and trace identity propagate into the agent hop.
func (c *Client) ResolveCtx(ctx context.Context, l loid.LOID) (binding.Binding, error) {
	return c.call(ctx, "GetBinding", wire.LOID(l))
}

// Refresh is RefreshCtx without a deadline or trace.
func (c *Client) Refresh(stale binding.Binding) (binding.Binding, error) {
	return c.RefreshCtx(context.Background(), stale)
}

// RefreshCtx implements rt.Resolver via the GetBinding(binding)
// overload.
func (c *Client) RefreshCtx(ctx context.Context, stale binding.Binding) (binding.Binding, error) {
	return c.call(ctx, "RebindStale", wire.Binding(stale))
}

// AddBinding propagates a binding into the agent's cache (§3.6).
func (c *Client) AddBinding(b binding.Binding) error {
	res, err := c.from().CallAddrCtx(context.Background(), c.addr, c.agent, "AddBinding", wire.Binding(b))
	if err != nil {
		return err
	}
	return res.Err()
}

// InvalidateLOID removes any binding for l from the agent's cache.
func (c *Client) InvalidateLOID(l loid.LOID) error {
	res, err := c.from().CallAddrCtx(context.Background(), c.addr, c.agent, "InvalidateLOID", wire.LOID(l))
	if err != nil {
		return err
	}
	return res.Err()
}

// InvalidateBinding removes b from the agent's cache if it matches
// exactly.
func (c *Client) InvalidateBinding(b binding.Binding) error {
	res, err := c.from().CallAddrCtx(context.Background(), c.addr, c.agent, "InvalidateBinding", wire.Binding(b))
	if err != nil {
		return err
	}
	return res.Err()
}

// CacheStats reads the agent's hit/miss counters.
func (c *Client) CacheStats() (hits, misses uint64, err error) {
	res, err := c.from().CallAddrCtx(context.Background(), c.addr, c.agent, "CacheStats")
	if err != nil {
		return 0, 0, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return 0, 0, err
	}
	if hits, err = wire.AsUint64(raw); err != nil {
		return 0, 0, err
	}
	if raw, err = res.Result(1); err != nil {
		return 0, 0, err
	}
	misses, err = wire.AsUint64(raw)
	return hits, misses, err
}

func (c *Client) call(ctx context.Context, method string, arg []byte) (binding.Binding, error) {
	res, err := c.from().CallAddrCtx(ctx, c.addr, c.agent, method, arg)
	if err != nil {
		return binding.Binding{}, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return binding.Binding{}, err
	}
	return wire.AsBinding(raw)
}
