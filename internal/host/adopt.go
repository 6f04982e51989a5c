package host

import (
	"fmt"

	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

// adoptObjects is the bulk-adoption intake: a Magistrate recovering a
// crashed host ships the dead host's entire resident set as one
// snapshot stream (persist.EncodeSnapshot) and this host starts all of
// them in one call, instead of the per-object StartObject round trips
// the original E18 path pays.
//
// The call is all-or-nothing: if any object fails to start, everything
// adopted by THIS call is killed again and the error is returned — the
// Magistrate then falls back to per-OPR reactivation, which can spread
// the objects across several hosts. Objects already running here are
// counted as adopted (idempotent, same as StartObject), and are not
// torn down by a later failure in the same call.
func (h *Host) adoptObjects(inv *rt.Invocation) ([][]byte, error) {
	blob, err := inv.Arg(0)
	if err != nil {
		return nil, err
	}
	_, oprs, err := persist.DecodeSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("host %v: adopt: %w", h.self, err)
	}

	h.mu.Lock()
	if h.cpuLimit > 0 && uint64(len(h.running)+len(oprs)) > h.cpuLimit {
		limit := h.cpuLimit
		h.mu.Unlock()
		return nil, fmt.Errorf("host %v: adopting %d objects would exceed capacity %d", h.self, len(oprs), limit)
	}
	h.mu.Unlock()

	reg := h.node.Registry()
	span := h.node.Tracer().RootAlways("serve", "adopt", "host")
	var started []loid.LOID
	undo := func() {
		for _, l := range started {
			h.node.Kill(l)
			h.node.Unpark(l)
			h.mu.Lock()
			delete(h.running, l.ID())
			h.mu.Unlock()
		}
	}
	adopted := 0
	for _, o := range oprs {
		l := o.LOID
		if _, ok := h.node.Lookup(l); ok {
			adopted++ // already running here: idempotent
			continue
		}
		impl, err := h.impls.New(o.Impl)
		if err != nil {
			undo()
			return nil, fmt.Errorf("host %v: adopt %v: %w", h.self, l, err)
		}
		if len(o.State) > 0 {
			if err := impl.RestoreState(o.State); err != nil {
				undo()
				return nil, fmt.Errorf("host %v: adopt restore %v: %w", h.self, l, err)
			}
		}
		opts := []rt.SpawnOption{rt.WithLabel("obj/" + l.ID().String())}
		if h.newRes != nil {
			opts = append(opts, rt.WithCaller(rt.NewCaller(h.node, l, h.newRes(l))))
		}
		if h.impls.IsConcurrent(o.Impl) {
			opts = append(opts, rt.WithConcurrency(ServiceConcurrency))
		}
		if _, err := h.node.Spawn(l, impl, opts...); err != nil {
			undo()
			return nil, fmt.Errorf("host %v: adopt spawn %v: %w", h.self, l, err)
		}
		h.mu.Lock()
		h.running[l.ID()] = &resident{impl: o.Impl}
		h.mu.Unlock()
		started = append(started, l)
		adopted++
	}
	reg.Counter("host/adoptions").Inc()
	reg.Counter("host/adopted_objects").Add(uint64(adopted))
	if span != nil {
		span.Event("adopt", fmt.Sprintf("%d objects in one snapshot", adopted))
		span.Finish(wire.OK.String())
	}
	return [][]byte{wire.Uint64(uint64(adopted))}, nil
}
