package magistrate

import (
	"context"
	"fmt"

	"repro/internal/binding"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
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
// resident set to one survivor in a single AdoptObjects call when the
// store can export snapshots; off forces the per-OPR reactivation
// path — the ablation baseline E21 measures bulk adoption against.
func (m *Magistrate) SetBulkAdoption(on bool) {
	m.mu.Lock()
	m.noBulk = !on
	m.mu.Unlock()
}

// checkpointBatch is the batched Checkpoint intake: one RPC carries a
// host's whole dirty set (persist.EncodeOPRBatch), and on a batching
// store the whole set is persisted under one group commit instead of
// one fsync per object. Entries whose object the Magistrate no longer
// believes active on the sender are dropped, exactly as in the
// single-object path; the accepted count is returned.
func (m *Magistrate) checkpointBatch(inv *rt.Invocation) ([][]byte, error) {
	fromHost, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	blob, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	oprs, err := persist.DecodeOPRBatch(blob)
	if err != nil {
		return nil, fmt.Errorf("magistrate %v: checkpoint batch: %w", m.self, err)
	}

	// Filter to entries still live on the sender.
	m.mu.Lock()
	live := oprs[:0]
	recs := make([]*record, 0, len(oprs))
	for _, o := range oprs {
		rec, ok := m.table[o.LOID.ID()]
		if !ok || !rec.active || !rec.host.SameObject(fromHost) {
			continue // deactivated or migrated since the host sampled it
		}
		live = append(live, o)
		recs = append(recs, rec)
	}
	m.mu.Unlock()
	if len(live) == 0 {
		return [][]byte{wire.Uint64(0)}, nil
	}

	addrs, err := putBatch(m.store, live)
	if err != nil {
		return nil, fmt.Errorf("magistrate %v: checkpoint batch of %d: %w", m.self, len(live), err)
	}

	// Swap in the new checkpoints; an entry whose life changed while we
	// wrote loses its new file (the deactivation path has persisted
	// authoritative state).
	stale := make([]persist.PersistentAddress, 0, len(live))
	accepted := make([]int, 0, len(live))
	m.mu.Lock()
	for i := range live {
		rec2, ok := m.table[live[i].LOID.ID()]
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
	for _, a := range stale {
		_ = m.store.Delete(a)
	}
	for _, i := range accepted {
		noteGeneration(plane, live[i].LOID, "checkpoint", fromHost, len(live[i].State))
	}
	m.reg().Counter("mag/ckpt_batches").Inc()
	m.reg().Counter("mag/ckpt_batch_saved").Add(uint64(len(accepted)))
	return [][]byte{wire.Uint64(uint64(len(accepted)))}, nil
}

// putBatch persists a set of OPRs through the store's PutBatch when it
// has one (a single group commit on the segment backend), falling back
// to per-OPR Puts. All-or-nothing: a mid-batch failure in the fallback
// deletes the already-written prefix.
func putBatch(s persist.Store, oprs []persist.OPR) ([]persist.PersistentAddress, error) {
	if bp, ok := s.(persist.BatchPutter); ok {
		return bp.PutBatch(oprs)
	}
	addrs := make([]persist.PersistentAddress, len(oprs))
	for i, o := range oprs {
		a, err := s.Put(o)
		if err != nil {
			for _, done := range addrs[:i] {
				_ = s.Delete(done)
			}
			return nil, err
		}
		addrs[i] = a
	}
	return addrs, nil
}

// bulkAdopt is the fast half of HostFailed recovery: instead of one
// StartObject round trip per crashed resident (reactivate), the
// promoted OPRs are exported from the store as one snapshot stream and
// shipped to a single surviving host in one AdoptObjects call. The
// per-record settlement mirrors activateLocal/startOn exactly —
// records are claimed with the activating flag so concurrent Activate,
// Deactivate, and Delete calls wait instead of racing a second
// incarnation into existence. Any failure (no host, export error, the
// target refuses) releases the claims and falls back to per-OPR
// reactivation, which can spread the objects across hosts.
func (m *Magistrate) bulkAdopt(ls []loid.LOID) {
	exp, ok := m.store.(persist.SnapshotExporter)
	if !ok {
		m.reactivate(ls)
		return
	}
	span := m.tracer().RootAlways("call", "bulk.adopt", "magistrate")
	reg := m.reg()
	t0 := m.now()

	// Claim: mark each inert record activating and collect its OPR
	// address. Records already active, settling elsewhere, or without a
	// persistent representation are left to the per-OPR path.
	m.mu.Lock()
	var (
		ids   []loid.LOID
		recs  []*record
		addrs []persist.PersistentAddress
		rest  []loid.LOID
	)
	for _, l := range ls {
		rec, ok := m.table[l.ID()]
		if !ok || rec.active {
			continue
		}
		if rec.activating || rec.migrating || rec.oprAddr == "" {
			rest = append(rest, l)
			continue
		}
		rec.activating = true
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
		for _, rec := range recs {
			rec.activating = false
		}
		m.cond.Broadcast()
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
	blob, err := exp.ExportSnapshot(addrs)
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
	hc := host.NewClient(m.obj.Caller(), target.l)
	adopted, err := hc.AdoptObjects(context.Background(), blob)
	if err != nil {
		fallback("adopt on "+target.l.String(), err)
		return
	}

	// Commit: every shipped object now runs at the target host. A record
	// that vanished while the adoption was in flight leaves an orphan on
	// the target; reap it, as startOn does.
	var orphans []loid.LOID
	m.mu.Lock()
	for i, l := range ids {
		rec := recs[i]
		rec.activating = false
		if m.table[l.ID()] != rec {
			orphans = append(orphans, l)
			continue
		}
		m.place(rec, target.l, target.addr)
		rec.oprAddr = ""
		if rec.ckptAddr != "" && rec.ckptAddr != addrs[i] {
			_ = m.store.Delete(rec.ckptAddr)
		}
		rec.ckptAddr = ""
	}
	m.cond.Broadcast()
	plane := m.plane
	m.mu.Unlock()
	// The state lives in the running incarnations now; the shipped OPRs
	// are stale.
	for _, a := range addrs {
		_ = m.store.Delete(a)
	}
	for _, l := range orphans {
		_ = hc.KillObject(l)
	}
	reg.Counter("mag/bulk_adoptions").Inc()
	reg.Counter("mag/bulk_adopted_objects").Add(adopted)
	reg.Histogram("mag/bulk_adopt").Observe(m.since(t0))
	span.Event("bulk.adopt", fmt.Sprintf("%d objects -> %v", adopted, target.l))
	span.Finish(wire.OK.String())

	// Repair the naming chain for each adopted object, as reactivate
	// does one by one.
	m.mu.Lock()
	orphaned := make(map[loid.LOID]bool, len(orphans))
	for _, l := range orphans {
		orphaned[l] = true
	}
	type notice struct {
		l loid.LOID
		b binding.Binding
	}
	notices := make([]notice, 0, len(ids))
	for _, l := range ids {
		if orphaned[l] {
			continue
		}
		notices = append(notices, notice{l: l, b: m.bindingLocked(l, target.addr)})
	}
	m.mu.Unlock()
	for _, n := range notices {
		noteGeneration(plane, n.l, "adopt", target.l, 0)
		m.notifyClass(n.l, n.b)
	}
}
