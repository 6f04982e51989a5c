package magistrate

import (
	"context"
	"fmt"

	"repro/internal/binding"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/wire"
)

// SetAdoptHook installs a chaos seam fired after the snapshot is
// exported and before it ships to the chosen target — the exact moment
// a mid-ship crash would land. Experiments use it to kill the target
// host deterministically; the shipping failure must then fall back to
// per-OPR reactivation without losing state or doubling incarnations.
// Called outside the Magistrate's lock. nil removes it.
func (m *Magistrate) SetAdoptHook(h func(target loid.LOID)) {
	m.mu.Lock()
	m.adoptHook = h
	m.mu.Unlock()
}

// SetBulkAdoption toggles snapshot-shipped recovery after a host
// failure. On (the default), HostFailed ships the dead host's whole
// resident set to one survivor in a single AdoptObjects call; off
// forces the per-OPR reactivation path — the ablation baseline E21
// measures bulk adoption against.
func (m *Magistrate) SetBulkAdoption(on bool) {
	m.mu.Lock()
	m.noBulk = !on
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

// bulkAdopt is the fast half of HostFailed recovery: instead of one
// StartObject round trip per crashed resident (reactivate), the
// promoted OPRs are exported from the store as one snapshot stream and
// shipped to a single surviving host in one AdoptObjects call. The
// records are claimed, and committed, exactly as activateLocal/startOn
// do one at a time, so concurrent Activate, Deactivate, and Delete
// calls wait instead of racing a second incarnation into existence.
// Any failure (no host, export error, the target refuses) releases the
// claims and falls back to per-OPR reactivation, which can spread the
// objects across hosts.
func (m *Magistrate) bulkAdopt(ls []loid.LOID) {
	span := m.tracer().RootAlways("call", "bulk.adopt", "magistrate")
	reg := m.reg()
	t0 := m.now()

	// Claim each inert record and collect its OPR address. Records
	// already active, busy elsewhere, or without a persistent
	// representation are left to the per-OPR path.
	m.mu.Lock()
	var (
		ids   []loid.LOID
		recs  []*record
		addrs []persist.PersistentAddress
		rest  []loid.LOID
	)
	for _, l := range ls {
		rec, ok := m.table[l.Ident()]
		if !ok || rec.active {
			continue
		}
		if rec.busy || rec.oprAddr == "" {
			rest = append(rest, l)
			continue
		}
		m.claimLocked(rec)
		ids = append(ids, l)
		recs = append(recs, rec)
		addrs = append(addrs, rec.oprAddr)
	}
	var target hostEntry
	var perr error
	if len(ids) > 0 {
		target, perr = m.pickHostLocked(loid.Nil)
		if perr == nil && m.filter != nil {
			for i, l := range ids {
				if ferr := m.filter(l, recs[i].impl, target.l); ferr != nil {
					perr = fmt.Errorf("magistrate %v refuses to adopt %v: %w", m.self, l, ferr)
					break
				}
			}
		}
	}
	m.mu.Unlock()

	release := func() {
		m.mu.Lock()
		m.releaseLocked(recs...)
		m.mu.Unlock()
	}
	fallback := func(why string, err error) {
		release()
		reg.Counter("mag/bulk_adopt_failed").Inc()
		span.Event("bulk.adopt", fmt.Sprintf("%s: %v; falling back to per-OPR reactivation", why, err))
		span.Finish(wire.ErrApp.String())
		m.reactivate(append(ids, rest...))
	}

	if len(ids) == 0 {
		release()
		span.Finish(wire.OK.String())
		if len(rest) > 0 {
			m.reactivate(rest)
		}
		return
	}
	if perr != nil {
		fallback("placement", perr)
		return
	}
	blob, err := m.store.ExportSnapshot(addrs)
	if err != nil {
		fallback("snapshot export", err)
		return
	}
	m.mu.Lock()
	hook := m.adoptHook
	m.mu.Unlock()
	if hook != nil {
		hook(target.l) // chaos seam: the target may die mid-ship here
	}
	hc := m.obj.Caller().To(target.l)
	adopted, err := host.AdoptObjects.Call(context.Background(), hc, blob)
	if err != nil {
		fallback("adopt on "+target.l.String(), err)
		return
	}

	// Commit: every shipped object now runs at the target host. A record
	// that vanished while the adoption was in flight leaves an orphan on
	// the target; reap it, as startOn does.
	type notice struct {
		l loid.LOID
		b binding.Binding
	}
	var (
		orphans []loid.LOID
		stale   []persist.PersistentAddress
	)
	notices := make([]notice, 0, len(ids))
	m.mu.Lock()
	m.releaseLocked(recs...)
	for i, l := range ids {
		s, ok := m.commitStartedLocked(l, recs[i], target.l, target.addr, addrs[i])
		if !ok {
			orphans = append(orphans, l)
			continue
		}
		stale = append(stale, s[:]...)
		notices = append(notices, notice{l: l, b: m.bindingLocked(l, target.addr)})
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
	span.Event("bulk.adopt", fmt.Sprintf("%d objects -> %v", adopted, target.l))
	span.Finish(wire.OK.String())

	// Repair the naming chain for each adopted object, as reactivate
	// does one by one.
	for _, n := range notices {
		noteGeneration(plane, n.l, "adopt", target.l, 0)
		m.notifyClass(context.Background(), n.l, n.b)
	}
}
