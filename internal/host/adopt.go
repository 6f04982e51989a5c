package host

import (
	"context"
	"fmt"

	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/wire"
)

// adoptObjects is the set intake: a Magistrate ships a set of objects as
// one OPR batch (persist.EncodeOPRBatch, the format CheckpointBatch
// carries the other way) and this host starts all of them in one call.
// It is the one way lost objects come back (a recovery's lost set) and
// the way new ones arrive in bulk (an Instantiate's planned share).
//
// The call is all-or-nothing: capacity is reserved for the whole set or
// refused, and if any object fails to start, everything adopted by THIS
// call is killed again and the error is returned — the Magistrate then
// offers the set, or each of its objects, elsewhere. Objects already
// running here are counted as adopted (idempotent, same as
// StartObject), and are not torn down by a later failure in the same
// call.
func (h *Host) adoptObjects(_ context.Context, blob []byte) (uint64, error) {
	oprs, err := persist.DecodeOPRBatch(blob)
	if err != nil {
		return 0, fmt.Errorf("host %v: adopt: %w", h.self, err)
	}

	// The whole set is admitted at once; what does not become a resident
	// is given back when the call ends.
	if err := h.reserve(len(oprs)); err != nil {
		return 0, fmt.Errorf("host %v: adopt: %w", h.self, err)
	}
	var started []loid.LOID
	defer func() { h.unreserve(len(oprs) - len(started)) }()

	reg := h.node.Registry()
	span := h.node.Tracer().RootAlways("serve", "adopt", "host")
	adopted := 0
	for _, o := range oprs {
		l := o.LOID
		if _, ok := h.node.Lookup(l); ok {
			adopted++ // already running here: idempotent
			continue
		}
		if err := h.spawnResident(l, o.Impl, o.State); err != nil {
			for _, s := range started {
				h.evict(s, oa.Element{})
			}
			return 0, fmt.Errorf("host %v: adopt %v: %w", h.self, l, err)
		}
		started = append(started, l)
		adopted++
	}
	reg.Counter("host/adoptions").Inc()
	reg.Counter("host/adopted_objects").Add(uint64(adopted))
	if span != nil {
		span.Event("adopt", fmt.Sprintf("%d objects in one batch", adopted))
		span.Finish(wire.OK.String())
	}
	return uint64(adopted), nil
}
