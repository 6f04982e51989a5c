// Live migration, magistrate side, and the steps it shares with
// Deactivate: both planned exits drain the object and file its state
// (drainAndFile), then finish or reopen the source (abortToSource).
// MigrateObject finishes through the start round, pinned to the
// destination: whichever side dies mid-flight, the object ends with
// exactly one incarnation (or one authoritative persistent
// representation awaiting reactivation), never zero and never two.
//
// The same file carries the jurisdiction's load table (ReportLoad
// heartbeats from Host Objects) and the placement/rebalancing read
// APIs (GetLoads, ListPlacements) that Scheduling Agents consume.

package magistrate

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// loadEntry is one host's newest heartbeat report.
type loadEntry struct {
	ld host.Load
	at time.Time
}

// HostLoad is a host's load vector as the Magistrate sees it: the
// resident count is the Magistrate's own, kept per host as records are
// placed and unplaced (it is authoritative — heartbeats lag), the
// dynamic terms come from the host's newest report, Age telling how
// stale that report is. A host that never reported carries zero dynamic
// terms and a negative Age.
type HostLoad struct {
	Host loid.LOID
	Load host.Load
	Age  time.Duration
}

// Placement names where one object lives.
type Placement struct {
	Object loid.LOID
	Impl   string
	Host   loid.LOID // nil when inert
	Active bool
}

// MigrateHook observes migration phase boundaries ("prepared",
// "shipped", "republished", "committed") — the chaos-injection seam
// the experiments use to crash hosts at exact points of the protocol.
// Called outside the Magistrate's lock.
type MigrateHook func(phase string, object, src, dest loid.LOID)

// SetMigrateHook installs the phase observer (test instrumentation).
func (m *Magistrate) SetMigrateHook(h MigrateHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migHook = h
}

func (m *Magistrate) hook(phase string, l, src, dest loid.LOID) {
	m.mu.Lock()
	h, plane := m.migHook, m.plane
	m.mu.Unlock()
	// Every phase boundary is a flight-recorder event; the commit is
	// additionally an entry in the object's incarnation history.
	if plane != nil {
		plane.Record(obs.KindMigrate, l.ID().String(),
			phase+" "+src.String()+" -> "+dest.String(), 0)
		if phase == "committed" {
			noteGeneration(plane, l, "migrate", dest, 0)
		}
	}
	if h != nil {
		h(phase, l, src, dest)
	}
}

// reportLoad files a host's heartbeat load vector.
func (m *Magistrate) reportLoad(_ context.Context, h loid.LOID, ld host.Load, telemetry []byte) (rt.Void, error) {
	m.mu.Lock()
	m.loads[h.ID()] = loadEntry{ld: ld, at: m.now()}
	plane := m.plane
	m.mu.Unlock()
	// Every heartbeat becomes one epoch of the cluster timeline; a host
	// with a distinct registry additionally piggybacks its telemetry
	// report as an optional third argument (older hosts send two).
	plane.NoteLoad(h.String(), ld.Score(), ld.Residents, ld.DispatchRate, ld.MailboxDepth)
	if len(telemetry) > 0 {
		// A malformed report is a telemetry loss, not a heartbeat
		// failure: the load vector above already landed.
		_ = plane.Ingest(h.String(), telemetry)
	}
	return rt.Void{}, nil
}

// Loads returns the jurisdiction's per-host load view, in host-list
// order. Resident counts are the ones place/unplace keep (m.residents),
// so the view never lags the Magistrate's own actions (activations,
// migrations) behind the heartbeat cadence, and reading it costs
// O(hosts) whatever the size of the table.
func (m *Magistrate) Loads() []HostLoad {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]HostLoad, 0, len(m.hosts))
	for _, h := range m.hosts {
		hl := HostLoad{Host: h.l, Age: -1}
		if le, ok := m.loads[h.l.ID()]; ok {
			hl.Load = le.ld
			hl.Age = now.Sub(le.at)
		}
		hl.Load.Residents = uint64(m.residents[h.l.ID()])
		out = append(out, hl)
	}
	return out
}

// Placements returns every object the Magistrate knows and where it
// lives.
func (m *Magistrate) Placements() []Placement {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Placement, 0, len(m.table))
	for id, rec := range m.table {
		p := Placement{Object: id.LOID(), Impl: rec.impl, Active: rec.active}
		if rec.active {
			p.Host = rec.host
		}
		out = append(out, p)
	}
	return out
}

func marshalLoads(ls []HostLoad) []byte {
	var w wire.Writer
	w.Count64(len(ls))
	for _, hl := range ls {
		w.LOID(hl.Host)
		w.Raw(hl.Load.Marshal())
		w.U64(uint64(hl.Age.Milliseconds()))
	}
	return w.Bytes()
}

// loadBytes is the size of one host.Load vector.
const loadBytes = 6 * 8

// UnmarshalLoads decodes a GetLoads reply.
func UnmarshalLoads(b []byte) ([]HostLoad, error) {
	r := wire.NewReader(b)
	out := make([]HostLoad, r.Count64(loid.EncodedSize+loadBytes+8))
	for i := range out {
		out[i].Host = r.LOID()
		ld, err := host.UnmarshalLoad(r.Raw(loadBytes))
		r.Fail(err)
		out[i].Load = ld
		out[i].Age = time.Duration(r.U64()) * time.Millisecond
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("magistrate: loads: %w", err)
	}
	return out, nil
}

func marshalPlacements(ps []Placement) []byte {
	var w wire.Writer
	w.Count64(len(ps))
	for _, p := range ps {
		w.LOID(p.Object)
		w.LOID(p.Host)
		w.Str64(p.Impl)
		var act uint64
		if p.Active {
			act = 1
		}
		w.U64(act)
	}
	return w.Bytes()
}

// UnmarshalPlacements decodes a ListPlacements reply.
func UnmarshalPlacements(b []byte) ([]Placement, error) {
	r := wire.NewReader(b)
	out := make([]Placement, r.Count64(2*loid.EncodedSize+16))
	for i := range out {
		out[i] = Placement{Object: r.LOID(), Host: r.LOID(), Impl: r.Str64(wire.NoCap), Active: r.U64() == 1}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("magistrate: placements: %w", err)
	}
	return out, nil
}

// MigrateObject moves a running object to destHost without failing a
// single call: the source drains it to a quiesce point (arrivals
// parked), the state is checkpointed and started on the destination,
// the binding republishes, and the source flips its park queue into a
// one-hop forwarding tombstone. A no-op if it already runs on destHost.
//
// Partial failures settle exactly-once: any failure before the binding
// republishes aborts back to the source; a source that died before
// republish, or a destination after it, is caught as the claim is
// released (release) — HostFailed deliberately skips the busy record.
func (m *Magistrate) MigrateObject(ctx context.Context, l, destHost loid.LOID) error {
	reg := m.reg()
	reg.Counter("mig/attempts").Inc()
	t0 := m.now()

	m.mu.Lock()
	rec, ok := m.waitSettledLocked(l.Ident())
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	if !rec.active {
		m.mu.Unlock()
		return fmt.Errorf("magistrate %v: object %v is inert (activate it instead)", m.self, l)
	}
	if rec.host.SameObject(destHost) {
		m.mu.Unlock()
		return nil // already there
	}
	if !m.hostKnownLocked(destHost) {
		m.mu.Unlock()
		return fmt.Errorf("magistrate %v: destination host %v not in jurisdiction", m.self, destHost)
	}
	src := rec.host
	m.claimLocked(rec)
	m.mu.Unlock()

	span := m.tracer().RootAlways("call", "migrate", "magistrate")
	span.Event("migrate", fmt.Sprintf("%v: %v -> %v", l, src, destHost))
	err := m.runMigration(ctx, span, l, rec, src, destHost)

	// Settlement: HostFailed skipped the claimed record, so a source that
	// died before republish, or a destination after it, left it placed on
	// a dead host; release settles it.
	if m.release(l, rec) {
		span.Event("migrate", fmt.Sprintf("%v: its host died under the migration; recovering from checkpoint", l))
	}

	if err != nil {
		reg.Counter("mig/aborts").Inc()
		span.Finish(wire.ErrApp.String())
		return err
	}
	reg.Counter("mig/success").Inc()
	reg.Histogram("mig/total").Observe(m.since(t0))
	span.Finish(wire.OK.String())
	return nil
}

// runMigration performs the phase sequence with rec claimed.
func (m *Magistrate) runMigration(ctx context.Context, span *trace.Span, l loid.LOID, rec *record, src, dest loid.LOID) error {
	// Phases 1 and 2: drain on the source and file the drained state.
	// From here on, even if both hosts die the object recovers exactly
	// as drained: the commit or the abort makes it the checkpoint.
	saved, ckpt, err := m.drainAndFile(ctx, l, src, func(saved host.Saved) {
		span.Event("migrate", fmt.Sprintf("%v drained on %v (%d state bytes)", l, src, len(saved.State)))
		m.hook("prepared", l, src, dest)
	})
	if err != nil {
		return m.abortToSource(l, src, rec, "", err)
	}

	// Phases 3 and 4: ship and republish. The start round, pinned to the
	// destination, starts the object there from the checkpoint and
	// commits it, the claim still held; a start it did not commit is
	// reaped.
	set := []starting{{rec: rec, from: ckpt, opr: persist.OPR{LOID: l, Impl: saved.Impl, State: saved.State}, moving: true}}
	m.startSet(ctx, set, dest, hostEntry{}, roundHooks{after: func(err error) {
		if err == nil {
			m.hook("shipped", l, src, dest)
		}
	}})
	if set[0].on.IsNil() {
		return m.abortToSource(l, src, rec, ckpt, set[0].err)
	}
	b := set[0].b
	m.notifyClass(ctx, l, b)
	span.Event("migrate", fmt.Sprintf("%v binding republished -> %v", l, b.Address))
	m.hook("republished", l, src, dest)

	// Phase 5: commit. The source kills its incarnation and forwards
	// parked + late frames one hop to the new home. A failure here is
	// tolerable: if the source host died, its parked frames died with
	// it and their callers heal via retry + binding refresh.
	if _, err := host.FinishMigrate.Call(ctx, m.obj.Caller().To(src), l, b.Address); err != nil {
		m.reg().Counter("mig/finish_failed").Inc()
		span.Event("migrate", fmt.Sprintf("%v commit on %v failed: %v (callers heal via refresh)", l, src, err))
	}
	m.hook("committed", l, src, dest)
	return nil
}

// drainAndFile is the first half of both planned exits: the object is
// drained on src (PrepareMigrate: arrivals park, the state is saved at a
// quiesce point) and that state filed in the store. It returns the state
// and its address, which the exit's commit or abort gives the record;
// drained, if not nil, runs between the two steps. On an error the
// caller aborts (abortToSource).
func (m *Magistrate) drainAndFile(ctx context.Context, l, src loid.LOID, drained func(host.Saved)) (host.Saved, persist.PersistentAddress, error) {
	saved, err := host.PrepareMigrate.Call(ctx, m.obj.Caller().To(src), l)
	if err != nil {
		return saved, "", fmt.Errorf("magistrate %v: drain %v on %v: %w", m.self, l, src, err)
	}
	if drained != nil {
		drained(saved)
	}
	addr, err := m.store.Put(persist.OPR{LOID: l, Impl: saved.Impl, State: saved.State})
	if err != nil {
		return saved, "", fmt.Errorf("magistrate %v: file %v: %w", m.self, l, err)
	}
	return saved, addr, nil
}

// abortToSource unwinds a planned exit that failed before the object
// left its host. filed, when not empty, is the drained state the exit
// filed: it becomes rec's checkpoint, the newest state of the object.
// If the source host is still in the jurisdiction, the object reopens
// there (parked calls replay in order). If it died meanwhile, the
// caller's release settles the record lost — promoting that checkpoint
// — and recovers it.
func (m *Magistrate) abortToSource(l, src loid.LOID, rec *record, filed persist.PersistentAddress, cause error) error {
	m.mu.Lock()
	known := m.hostKnownLocked(src)
	stale := filed
	if filed != "" && m.table[l.Ident()] == rec {
		stale, rec.ckptAddr = rec.ckptAddr, filed
	}
	m.mu.Unlock()
	m.drop(stale)
	// The source reopens even when the caller's budget is spent.
	if known {
		if _, err := host.AbortMigrate.Call(context.Background(), m.obj.Caller().To(src), l); err != nil {
			m.reg().Counter("mig/abort_failed").Inc()
		}
	}
	return cause
}

// hostIndexLocked returns h's position in the jurisdiction's host list,
// or -1 when h is not in it. m.mu held.
func (m *Magistrate) hostIndexLocked(h loid.LOID) int {
	return slices.IndexFunc(m.hosts, func(e hostEntry) bool { return e.l.SameObject(h) })
}

// hostKnownLocked reports whether h is in the jurisdiction's host list.
// m.mu held.
func (m *Magistrate) hostKnownLocked(h loid.LOID) bool { return m.hostIndexLocked(h) >= 0 }

// dropHostLocked takes h out of the jurisdiction's host list, if it is
// there. m.mu held.
func (m *Magistrate) dropHostLocked(h loid.LOID) {
	if i := m.hostIndexLocked(h); i >= 0 {
		m.hosts = slices.Delete(m.hosts, i, i+1)
	}
}
