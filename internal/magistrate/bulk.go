package magistrate

import (
	"context"
	"fmt"

	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/wire"
)

// SetAdoptHook installs a chaos seam fired before each call of a
// recovery round ships to its target host — the exact moment a mid-ship
// crash would land. Experiments use it to kill the target host
// deterministically; the set must then go to the next host without
// losing state or doubling incarnations. Called outside the
// Magistrate's lock. nil removes it.
func (m *Magistrate) SetAdoptHook(h func(target loid.LOID)) {
	m.mu.Lock()
	m.adoptHook = h
	m.mu.Unlock()
}

// checkpointBatch is the checkpoint intake: one RPC carries a host's
// whole dirty set, persisted under one group commit instead of one
// fsync per object; the checkpoints it replaces are dropped under one
// more. Only the newest checkpoint of each object is kept. Entries
// whose object the Magistrate no longer believes active on the sender
// are dropped — the deactivation path has already persisted
// authoritative (post-shutdown) state; the accepted count is returned.
func (m *Magistrate) checkpointBatch(_ context.Context, fromHost loid.LOID, oprs []persist.OPR) (uint64, error) {
	// Filter to entries still live on the sender.
	m.mu.Lock()
	live := oprs[:0]
	recs := make([]*record, 0, len(oprs))
	for _, o := range oprs {
		rec, ok := m.table[o.LOID.Ident()]
		if !ok || !rec.active || !rec.host.SameObject(fromHost) {
			continue // deactivated or migrated since the host sampled it
		}
		live = append(live, o)
		recs = append(recs, rec)
	}
	m.mu.Unlock()
	if len(live) == 0 {
		return 0, nil
	}

	addrs, err := m.store.PutBatch(live)
	if err != nil {
		return 0, fmt.Errorf("magistrate %v: checkpoint batch of %d: %w", m.self, len(live), err)
	}

	// Swap in the new checkpoints; an entry whose life changed while we
	// wrote loses its new file (the deactivation path has persisted
	// authoritative state).
	stale := make([]persist.PersistentAddress, 0, len(live))
	accepted := make([]int, 0, len(live))
	m.mu.Lock()
	for i := range live {
		rec2, ok := m.table[live[i].LOID.Ident()]
		if !ok || rec2 != recs[i] || !rec2.active || !rec2.host.SameObject(fromHost) {
			stale = append(stale, addrs[i])
			continue
		}
		stale = append(stale, rec2.filed) // drop skips an empty one
		rec2.filed = addrs[i]
		accepted = append(accepted, i)
	}
	plane := m.plane
	m.mu.Unlock()
	m.drop(stale...)
	for _, i := range accepted {
		noteGeneration(plane, live[i].LOID, "checkpoint", fromHost, len(live[i].State))
	}
	m.reg().Counter("mag/ckpt_batches").Inc()
	m.reg().Counter("mag/ckpt_batch_saved").Add(uint64(len(accepted)))
	return uint64(len(accepted)), nil
}

// claimLost claims those of ls whose records are inert and unclaimed,
// and returns the ones another actor holds. When it can claim none it
// waits for a release first, holding no claim itself: the claimant's
// settle settles the record and may start it. Objects active again, or
// gone from the table, drop out.
func (m *Magistrate) claimLost(ls []loid.LOID) (batch []*starting, busy []loid.LOID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for _, l := range ls {
			rec, ok := m.table[l.Ident()]
			switch {
			case !ok || rec.active:
			case rec.busy:
				busy = append(busy, l)
			default:
				m.claimLocked(rec)
				batch = append(batch, &starting{rec: rec, from: rec.filed, opr: persist.OPR{LOID: l, Impl: rec.impl}})
			}
		}
		if len(batch) > 0 || len(busy) == 0 {
			return batch, busy
		}
		ls, busy = busy, nil
		m.cond.Wait()
	}
}

// adoptRound starts a claimed batch of lost objects and settles it.
// Each OPR is read from the store (readOPR: a corrupt one restarts its
// object blank); any other read error leaves only that object inert.
// The rest go to the start round (startSet) with no host hint, the adopt
// hook firing before each call; whatever no host takes stays inert for
// the next Activate.
// Each call is counted once all it did is done: a failed one as its
// answer lands, before any later call of the round settles an object
// (an observer that sees the objects settled sees the failure too); one
// a host took, or one discarded because its host left the pool, once
// the round has ended. The objects started are announced to their
// classes, one call per class.
func (m *Magistrate) adoptRound(batch []*starting) {
	if len(batch) == 0 {
		return
	}
	span := m.tracer().RootAlways("call", "bulk.adopt", "magistrate")
	t0 := m.now()
	var read []*starting
	for _, a := range batch {
		// An unread object's zeroed OPR names no record, so settle only
		// ends its claim: the record stays in the table, inert.
		var err error
		if a.opr, err = m.readOPR(a.opr.LOID, a.opr.Impl, a.from); err != nil {
			span.Event("bulk.adopt", err.Error())
		} else {
			read = append(read, a)
		}
	}
	m.mu.Lock()
	hook, plane := m.adoptHook, m.plane
	m.mu.Unlock()

	reg := m.reg()
	took := 0
	discarded, _ := m.startSet(context.Background(), read, loid.Nil, hostEntry{}, roundHooks{before: hook, after: func(_ []*starting, err error) {
		if err != nil {
			reg.Counter("mag/bulk_adopt_failed").Inc()
		} else {
			took++
		}
	}})
	m.settle(batch)
	took -= discarded
	reg.Counter("mag/bulk_adopt_failed").Add(uint64(discarded))
	reg.Counter("mag/bulk_adoptions").Add(uint64(took))
	for range took {
		reg.Histogram("mag/bulk_adopt").Observe(m.since(t0))
	}
	adopted := 0
	var err error
	for _, a := range read {
		if a.on.IsNil() {
			err = a.err
			continue
		}
		adopted++
		noteGeneration(plane, a.opr.LOID, "adopt", a.on, 0)
	}
	m.notifyClasses(context.Background(), read)
	reg.Counter("mag/bulk_adopted_objects").Add(uint64(adopted))
	if err != nil {
		span.Event("bulk.adopt", err.Error())
	}
	if adopted < len(batch) {
		span.Finish(wire.ErrApp.String())
	} else {
		span.Finish(wire.OK.String())
	}
}
