package magistrate

import (
	"context"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Client is a typed handle for invoking a Magistrate's member
// functions.
type Client struct {
	c *rt.Caller
	m loid.LOID
}

// NewClient wraps caller for invocations on the Magistrate named m.
func NewClient(c *rt.Caller, m loid.LOID) *Client {
	return &Client{c: c, m: m}
}

// Magistrate returns the target Magistrate's LOID.
func (cl *Client) Magistrate() loid.LOID { return cl.m }

// AddHost places a host (and its address) under the magistrate's
// jurisdiction.
func (cl *Client) AddHost(h loid.LOID, addr oa.Address) error {
	res, err := cl.c.Call(cl.m, "AddHost", wire.LOID(h), wire.Address(addr))
	if err != nil {
		return err
	}
	return res.Err()
}

// RemoveHost withdraws a host from the jurisdiction.
func (cl *Client) RemoveHost(h loid.LOID) error {
	res, err := cl.c.Call(cl.m, "RemoveHost", wire.LOID(h))
	if err != nil {
		return err
	}
	return res.Err()
}

// ListHosts enumerates the jurisdiction's hosts.
func (cl *Client) ListHosts() ([]loid.LOID, error) {
	res, err := cl.c.Call(cl.m, "ListHosts")
	if err != nil {
		return nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, err
	}
	return wire.AsLOIDList(raw)
}

// Register places a new object's persistent representation under the
// magistrate's control, inert: it runs on first Activate. (A class's
// Create uses InstantiateCtx, which starts the object instead.)
func (cl *Client) Register(l loid.LOID, impl string, state []byte) error {
	res, err := cl.c.Call(cl.m, "Register", wire.LOID(l), wire.String(impl), state)
	if err != nil {
		return err
	}
	return res.Err()
}

// Activate makes l a running process on one of the jurisdiction's
// hosts (if it is not already) and returns its binding. hostHint may be
// loid.Nil (§3.8: the overloaded Activate).
func (cl *Client) Activate(l loid.LOID, hostHint loid.LOID) (binding.Binding, error) {
	return cl.ActivateCtx(context.Background(), l, hostHint)
}

// ActivateCtx is Activate carrying the surrounding invocation's
// deadline and trace identity, so cold-path activation appears as a
// hop of the originating trace.
func (cl *Client) ActivateCtx(ctx context.Context, l loid.LOID, hostHint loid.LOID) (binding.Binding, error) {
	res, err := cl.c.CallCtx(ctx, cl.m, "Activate", wire.LOID(l), wire.LOID(hostHint))
	if err != nil {
		return binding.Binding{}, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return binding.Binding{}, err
	}
	return wire.AsBinding(raw)
}

// InstantiateCtx places a new object l under the magistrate's control
// and starts it from state on one of the jurisdiction's hosts (hostHint
// may be loid.Nil), returning its binding: the Create of §4.2 in one
// call. It writes nothing to the store, and an object that fails to
// start is not kept.
func (cl *Client) InstantiateCtx(ctx context.Context, l loid.LOID, impl string, state []byte, hostHint loid.LOID) (binding.Binding, error) {
	res, err := cl.c.CallCtx(ctx, cl.m, "Instantiate", wire.LOID(l), wire.String(impl), state, wire.LOID(hostHint))
	if err != nil {
		return binding.Binding{}, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return binding.Binding{}, err
	}
	return wire.AsBinding(raw)
}

// CheckpointBatch files crash-recovery snapshots of objects running on
// host h — one host's whole dirty set in a single call; batch is a
// persist.EncodeOPRBatch stream. The newest checkpoint is what
// HostFailed recovery activates from. Returns how many entries the
// Magistrate accepted (stale entries are silently dropped).
func (cl *Client) CheckpointBatch(h loid.LOID, batch []byte) (uint64, error) {
	res, err := cl.c.Call(cl.m, "CheckpointBatch", wire.LOID(h), batch)
	if err != nil {
		return 0, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return 0, err
	}
	return wire.AsUint64(raw)
}

// Deactivate moves l to an Object Persistent Representation on the
// jurisdiction's storage.
func (cl *Client) Deactivate(l loid.LOID) error {
	res, err := cl.c.Call(cl.m, "Deactivate", wire.LOID(l))
	if err != nil {
		return err
	}
	return res.Err()
}

// Delete removes l from existence: both Active and Inert copies
// (§3.8).
func (cl *Client) Delete(l loid.LOID) error {
	res, err := cl.c.Call(cl.m, "Delete", wire.LOID(l))
	if err != nil {
		return err
	}
	return res.Err()
}

// Copy sends l's Object Persistent Representation to another
// magistrate, keeping the local copy.
func (cl *Client) Copy(l loid.LOID, to loid.LOID) error {
	res, err := cl.c.Call(cl.m, "Copy", wire.LOID(l), wire.LOID(to))
	if err != nil {
		return err
	}
	return res.Err()
}

// Move migrates l to another magistrate (Copy then Delete, §3.8).
func (cl *Client) Move(l loid.LOID, to loid.LOID) error {
	res, err := cl.c.Call(cl.m, "Move", wire.LOID(l), wire.LOID(to))
	if err != nil {
		return err
	}
	return res.Err()
}

// GetBinding returns l's binding if it is Active.
func (cl *Client) GetBinding(l loid.LOID) (binding.Binding, error) {
	res, err := cl.c.Call(cl.m, "GetBinding", wire.LOID(l))
	if err != nil {
		return binding.Binding{}, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return binding.Binding{}, err
	}
	return wire.AsBinding(raw)
}

// HasObject reports whether the magistrate knows l and whether it is
// active.
func (cl *Client) HasObject(l loid.LOID) (known, active bool, err error) {
	res, err := cl.c.Call(cl.m, "HasObject", wire.LOID(l))
	if err != nil {
		return false, false, err
	}
	rawK, err := res.Result(0)
	if err != nil {
		return false, false, err
	}
	if known, err = wire.AsBool(rawK); err != nil {
		return false, false, err
	}
	rawA, err := res.Result(1)
	if err != nil {
		return false, false, err
	}
	active, err = wire.AsBool(rawA)
	return known, active, err
}

// ListObjects enumerates the objects under the magistrate's control.
func (cl *Client) ListObjects() ([]loid.LOID, error) {
	res, err := cl.c.Call(cl.m, "ListObjects")
	if err != nil {
		return nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, err
	}
	return wire.AsLOIDList(raw)
}

// AddSubMagistrate enrolls a child magistrate under this one,
// organizing jurisdictions into a hierarchy (§2.2).
func (cl *Client) AddSubMagistrate(sub loid.LOID, addr oa.Address) error {
	res, err := cl.c.Call(cl.m, "AddSubMagistrate", wire.LOID(sub), wire.Address(addr))
	if err != nil {
		return err
	}
	return res.Err()
}

// RemoveSubMagistrate withdraws a child magistrate.
func (cl *Client) RemoveSubMagistrate(sub loid.LOID) error {
	res, err := cl.c.Call(cl.m, "RemoveSubMagistrate", wire.LOID(sub))
	if err != nil {
		return err
	}
	return res.Err()
}

// ListSubMagistrates enumerates the children.
func (cl *Client) ListSubMagistrates() ([]loid.LOID, error) {
	res, err := cl.c.Call(cl.m, "ListSubMagistrates")
	if err != nil {
		return nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, err
	}
	return wire.AsLOIDList(raw)
}

// Migrate live-migrates l to destHost without failing in-flight or
// concurrent calls.
func (cl *Client) Migrate(ctx context.Context, l, destHost loid.LOID) error {
	res, err := cl.c.CallCtx(ctx, cl.m, "MigrateObject", wire.LOID(l), wire.LOID(destHost))
	if err != nil {
		return err
	}
	return res.Err()
}

// Query evaluates one LQL query on the Magistrate's observability
// plane and returns the result table.
func (cl *Client) Query(q string) (*obs.Table, error) {
	res, err := cl.c.Call(cl.m, "Query", wire.String(q))
	if err != nil {
		return nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, err
	}
	return obs.UnmarshalTable(raw)
}

// GetLoads fetches the jurisdiction's per-host load table.
func (cl *Client) GetLoads() ([]HostLoad, error) {
	res, err := cl.c.Call(cl.m, "GetLoads")
	if err != nil {
		return nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, err
	}
	return UnmarshalLoads(raw)
}

// ListPlacements fetches where every object under the magistrate
// lives.
func (cl *Client) ListPlacements() ([]Placement, error) {
	res, err := cl.c.Call(cl.m, "ListPlacements")
	if err != nil {
		return nil, err
	}
	raw, err := res.Result(0)
	if err != nil {
		return nil, err
	}
	return UnmarshalPlacements(raw)
}
