package magistrate

import (
	"context"
	"fmt"
	"time"

	"repro/internal/binding"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/trace"
	"repro/internal/wire"
)

// SetAdoptHook installs a chaos seam fired after an adoption batch is
// encoded and before it ships to its target host — the exact moment a
// mid-ship crash would land. Experiments use it to kill the target host
// deterministically; the batch must then go to the next host without
// losing state or doubling incarnations. Called outside the
// Magistrate's lock. nil removes it.
func (m *Magistrate) SetAdoptHook(h func(target loid.LOID)) {
	m.mu.Lock()
	m.adoptHook = h
	m.mu.Unlock()
}

// checkpointBatch is the checkpoint intake: one RPC carries a host's
// whole dirty set (persist.EncodeOPRBatch), persisted under one group
// commit instead of one fsync per object. Only the newest checkpoint of
// each object is kept. Entries whose object the Magistrate no longer
// believes active on the sender are dropped — the deactivation path has
// already persisted authoritative (post-shutdown) state; the accepted
// count is returned.
func (m *Magistrate) checkpointBatch(_ context.Context, fromHost loid.LOID, blob []byte) (uint64, error) {
	oprs, err := persist.DecodeOPRBatch(blob)
	if err != nil {
		return 0, fmt.Errorf("magistrate %v: checkpoint batch: %w", m.self, err)
	}

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
		if rec2.ckptAddr != "" {
			stale = append(stale, rec2.ckptAddr)
		}
		rec2.ckptAddr = addrs[i]
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

// adoptee is one lost object of an adoption round: its claimed record,
// the address of the OPR it starts from, and that OPR once read.
type adoptee struct {
	rec  *record
	from persist.PersistentAddress
	opr  persist.OPR
}

// claimLost claims those of ls whose records are inert and unclaimed,
// and returns the ones another actor holds. When it can claim none it
// waits for a release first, holding no claim itself: abortToSource
// recovers a record its own MigrateObject has yet to release. Objects
// active again, or gone from the table, drop out.
func (m *Magistrate) claimLost(ls []loid.LOID) (batch []adoptee, busy []loid.LOID) {
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
				batch = append(batch, adoptee{rec: rec, from: rec.oprAddr, opr: persist.OPR{LOID: l, Impl: rec.impl}})
			}
		}
		if len(batch) > 0 || len(busy) == 0 {
			return batch, busy
		}
		ls, busy = busy, nil
		m.cond.Wait()
	}
}

// adoptRound starts a claimed batch of lost objects. Each OPR is read
// from the store (readOPR: a corrupt one restarts its object blank); any
// other read error leaves only that object inert. The rest ship in one
// AdoptObjects call to the placement pick. A host whose call fails is
// not asked again, and the set goes to the next admitted host of the
// pool (unaskedAdmittedLocked, startFirst's rule). The activation
// filter is applied per object: a host is sent the part of the set it
// admits. Whatever no host takes is released inert, for the next
// Activate.
func (m *Magistrate) adoptRound(batch []adoptee) {
	if len(batch) == 0 {
		return
	}
	span := m.tracer().RootAlways("call", "bulk.adopt", "magistrate")
	t0 := m.now()
	var pending []adoptee
	var left []*record
	for _, a := range batch {
		opr, err := m.readOPR(a.opr.LOID, a.opr.Impl, a.from)
		if err != nil {
			span.Event("bulk.adopt", err.Error())
			left = append(left, a.rec)
			continue
		}
		a.opr = opr
		pending = append(pending, a)
	}

	var asked []loid.LOID
	m.mu.Lock()
	h, err := m.pickHostLocked(loid.Nil)
	if err != nil {
		span.Event("bulk.adopt", err.Error())
	}
	for ok := err == nil; ok && len(pending) > 0; h, ok = m.unaskedAdmittedLocked(asked, oprsOf(pending)) {
		asked = append(asked, h.l)
		var take, rest []adoptee
		for _, a := range pending {
			if m.admitsLocked(h.l, a.opr) {
				take = append(take, a)
			} else {
				rest = append(rest, a)
			}
		}
		if len(take) == 0 {
			continue
		}
		m.mu.Unlock()
		if m.adoptOn(span, t0, h, take) {
			pending = rest
		}
		m.mu.Lock()
	}
	for _, a := range pending {
		left = append(left, a.rec)
	}
	m.releaseLocked(left...)
	m.mu.Unlock()
	if len(left) > 0 {
		span.Finish(wire.ErrApp.String())
	} else {
		span.Finish(wire.OK.String())
	}
}

// oprsOf returns the OPRs of as.
func oprsOf(as []adoptee) []persist.OPR {
	oprs := make([]persist.OPR, len(as))
	for i, a := range as {
		oprs[i] = a.opr
	}
	return oprs
}

// adoptOn ships take to h in one AdoptObjects call (persist.EncodeOPRBatch,
// the format checkpoints travel in). If h starts them all, each object
// is committed there, exactly as startOn commits one, and its class is
// told the new address. It reports whether h took the set; if not, the
// claims stay held for the caller's next host.
func (m *Magistrate) adoptOn(span *trace.Span, t0 time.Time, h hostEntry, take []adoptee) bool {
	reg := m.reg()
	blob := persist.EncodeOPRBatch(oprsOf(take))
	m.mu.Lock()
	hook := m.adoptHook
	m.mu.Unlock()
	if hook != nil {
		hook(h.l) // chaos seam: the target may die mid-ship here
	}
	hc := m.obj.Caller().To(h.l)
	adopted, err := host.AdoptObjects.Call(context.Background(), hc, blob)
	if err != nil {
		reg.Counter("mag/bulk_adopt_failed").Inc()
		span.Event("bulk.adopt", fmt.Sprintf("adopt on %v: %v", h.l, err))
		return false
	}

	// Commit: every shipped object now runs at h. A record that vanished
	// while the adoption was in flight leaves an orphan on h; reap it,
	// as startOn does.
	type notice struct {
		l loid.LOID
		b binding.Binding
	}
	var (
		orphans []loid.LOID
		stale   []persist.PersistentAddress
	)
	notices := make([]notice, 0, len(take))
	m.mu.Lock()
	for _, a := range take {
		m.releaseLocked(a.rec)
		l := a.opr.LOID
		s, ok := m.commitStartedLocked(l, a.rec, h.l, h.addr, a.from)
		if !ok {
			orphans = append(orphans, l)
			continue
		}
		stale = append(stale, s[:]...)
		notices = append(notices, notice{l: l, b: m.bindingLocked(l, h.addr)})
	}
	plane := m.plane
	m.mu.Unlock()
	m.drop(stale...)
	for _, l := range orphans {
		_, _ = host.KillObject.Call(context.Background(), hc, l)
	}
	reg.Counter("mag/bulk_adoptions").Inc()
	reg.Counter("mag/bulk_adopted_objects").Add(adopted)
	reg.Histogram("mag/bulk_adopt").Observe(m.since(t0))
	span.Event("bulk.adopt", fmt.Sprintf("%d objects -> %v", adopted, h.l))

	// Repair the naming chain for each adopted object.
	for _, n := range notices {
		noteGeneration(plane, n.l, "adopt", h.l, 0)
		m.notifyClass(context.Background(), n.l, n.b)
	}
	return true
}
