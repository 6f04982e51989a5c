// Live migration, magistrate side. MigrateObject drives the phases —
// drain on the source, checkpoint the shipped state, start on the
// destination, republish the binding, commit the source's forwarding
// tombstone — and owns every partial-failure outcome: whichever side
// dies mid-flight, the object ends with exactly one incarnation (or
// one authoritative persistent representation awaiting reactivation),
// never zero and never two.
//
// The same file carries the jurisdiction's load table (ReportLoad
// heartbeats from Host Objects) and the placement/rebalancing read
// APIs (GetLoads, ListPlacements) that Scheduling Agents consume.
package magistrate

import (
	"context"
	"fmt"
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

// SetObliviousPlacement toggles load-aware placement off: picks fall
// back to a pure rotating cursor that ignores residency and load, the
// magistrate's pre-load-aware default. The jurisdiction owner's knob —
// E13/E14 use it as an ablation baseline and as a churn source (a
// load-aware magistrate reactivates an object right back onto the host
// it left, which is correct and therefore useless as a disturbance).
func (m *Magistrate) SetObliviousPlacement(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.oblivious = v
}

// SetMigrateHook installs the phase observer (test instrumentation).
func (m *Magistrate) SetMigrateHook(h MigrateHook) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.migHook = h
}

func (m *Magistrate) hook(phase string, l, src, dest loid.LOID) {
	m.mu.Lock()
	h := m.migHook
	plane := m.plane
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
func (m *Magistrate) reportLoad(inv *rt.Invocation) ([][]byte, error) {
	h, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	raw, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	ld, err := host.UnmarshalLoad(raw)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.loads[h.ID()] = loadEntry{ld: ld, at: m.now()}
	plane := m.plane
	m.mu.Unlock()
	// Every heartbeat becomes one epoch of the cluster timeline; a host
	// with a distinct registry additionally piggybacks its telemetry
	// report as an optional third argument (older hosts send two).
	plane.NoteLoad(h.String(), ld.Score(), ld.Residents, ld.DispatchRate, ld.MailboxDepth)
	if len(inv.Args) > 2 {
		if tb, err := inv.Arg(2); err == nil && len(tb) > 0 {
			// A malformed report is a telemetry loss, not a heartbeat
			// failure: the load vector above already landed.
			_ = plane.Ingest(h.String(), tb)
		}
	}
	return nil, nil
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
	for l, rec := range m.table {
		p := Placement{Object: l, Impl: rec.impl, Active: rec.active}
		if rec.active {
			p.Host = rec.host
		}
		out = append(out, p)
	}
	return out
}

func marshalLoads(ls []HostLoad) []byte {
	out := wire.Uint64(uint64(len(ls)))
	for _, hl := range ls {
		out = hl.Host.Marshal(out)
		out = append(out, hl.Load.Marshal()...)
		out = append(out, wire.Uint64(uint64(hl.Age.Milliseconds()))...)
	}
	return out
}

// UnmarshalLoads decodes a GetLoads reply.
func UnmarshalLoads(b []byte) ([]HostLoad, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("magistrate: truncated loads")
	}
	n, _ := wire.AsUint64(b[:8])
	b = b[8:]
	out := make([]HostLoad, 0, n)
	for i := uint64(0); i < n; i++ {
		var hl HostLoad
		var err error
		hl.Host, b, err = loid.Unmarshal(b)
		if err != nil {
			return nil, fmt.Errorf("magistrate: loads: %w", err)
		}
		if len(b) < 6*8+8 {
			return nil, fmt.Errorf("magistrate: truncated loads")
		}
		if hl.Load, err = host.UnmarshalLoad(b[:6*8]); err != nil {
			return nil, err
		}
		b = b[6*8:]
		ms, _ := wire.AsUint64(b[:8])
		b = b[8:]
		hl.Age = time.Duration(ms) * time.Millisecond
		out = append(out, hl)
	}
	return out, nil
}

func marshalPlacements(ps []Placement) []byte {
	out := wire.Uint64(uint64(len(ps)))
	for _, p := range ps {
		out = p.Object.Marshal(out)
		out = p.Host.Marshal(out)
		out = append(out, wire.Uint64(uint64(len(p.Impl)))...)
		out = append(out, p.Impl...)
		var act uint64
		if p.Active {
			act = 1
		}
		out = append(out, wire.Uint64(act)...)
	}
	return out
}

// UnmarshalPlacements decodes a ListPlacements reply.
func UnmarshalPlacements(b []byte) ([]Placement, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("magistrate: truncated placements")
	}
	n, _ := wire.AsUint64(b[:8])
	b = b[8:]
	out := make([]Placement, 0, n)
	for i := uint64(0); i < n; i++ {
		var p Placement
		var err error
		if p.Object, b, err = loid.Unmarshal(b); err != nil {
			return nil, fmt.Errorf("magistrate: placements: %w", err)
		}
		if p.Host, b, err = loid.Unmarshal(b); err != nil {
			return nil, fmt.Errorf("magistrate: placements: %w", err)
		}
		if len(b) < 8 {
			return nil, fmt.Errorf("magistrate: truncated placements")
		}
		ilen, _ := wire.AsUint64(b[:8])
		b = b[8:]
		if uint64(len(b)) < ilen+8 {
			return nil, fmt.Errorf("magistrate: truncated placements")
		}
		p.Impl = string(b[:ilen])
		b = b[ilen:]
		act, _ := wire.AsUint64(b[:8])
		b = b[8:]
		p.Active = act == 1
		out = append(out, p)
	}
	return out, nil
}

func (m *Magistrate) migrateObject(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	dest, err := argLOID(inv, 1)
	if err != nil {
		return nil, err
	}
	return nil, m.MigrateObject(inv.Ctx(), l, dest)
}

// MigrateObject moves a running object to destHost without failing a
// single call: the source drains it to a quiesce point (arrivals
// parked), the quiesced state is checkpointed into the store and
// started on the destination, the binding republishes, and the source
// flips its park queue into a one-hop forwarding tombstone. A no-op if
// the object already runs on destHost.
//
// Partial failures settle exactly-once: any failure before the binding
// republishes aborts back to the source (or, if the source is gone,
// promotes the migration checkpoint and reactivates); a destination
// that dies after republish is caught by the deferred settlement here
// — HostFailed deliberately skips migrating records.
func (m *Magistrate) MigrateObject(ctx context.Context, l, destHost loid.LOID) error {
	reg := m.reg()
	reg.Counter("mig/attempts").Inc()
	t0 := m.now()

	m.mu.Lock()
	rec, ok := m.waitSettledLocked(l.ID())
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
	var dest hostEntry
	found := false
	for _, h := range m.hosts {
		if h.l.SameObject(destHost) {
			dest, found = h, true
			break
		}
	}
	if !found {
		m.mu.Unlock()
		return fmt.Errorf("magistrate %v: destination host %v not in jurisdiction", m.self, destHost)
	}
	src := rec.host
	rec.migrating = true
	m.mu.Unlock()

	span := m.tracer().RootAlways("call", "migrate", "magistrate")
	span.Event("migrate", fmt.Sprintf("%v: %v -> %v", l, src, dest.l))
	err := m.runMigration(ctx, span, l, rec, src, dest)

	// Settlement. The migrating flag made HostFailed skip this record,
	// so a destination crash after republish left it pointing at a dead
	// host; re-check now that the flag drops and recover from the
	// migration checkpoint if so.
	m.mu.Lock()
	rec.migrating = false
	m.cond.Broadcast()
	destGone := rec.active && rec.host.SameObject(dest.l) && !m.hostKnownLocked(dest.l)
	var revive []loid.LOID
	if destGone {
		m.unplace(rec)
		if rec.ckptAddr != "" {
			if rec.oprAddr != "" {
				_ = m.store.Delete(rec.oprAddr)
			}
			rec.oprAddr = rec.ckptAddr
			rec.ckptAddr = ""
		} else if rec.oprAddr == "" {
			if a, perr := m.store.Put(persist.OPR{LOID: l, Impl: rec.impl}); perr == nil {
				rec.oprAddr = a
			}
		}
		revive = append(revive, l.ID())
	}
	survivors := len(m.hosts) > 0
	m.mu.Unlock()
	if len(revive) > 0 {
		span.Event("migrate", fmt.Sprintf("%v: destination died post-republish; recovering from checkpoint", l))
		if survivors {
			go m.reactivate(revive)
		}
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

// runMigration performs the phase sequence with rec.migrating held.
func (m *Magistrate) runMigration(ctx context.Context, span *trace.Span, l loid.LOID, rec *record, src loid.LOID, dest hostEntry) error {
	srcHC := host.NewClient(m.obj.Caller(), src)
	destHC := host.NewClient(m.obj.Caller(), dest.l)

	// Phase 1: drain. The source parks arrivals and saves state at the
	// quiesce point.
	state, implName, err := srcHC.PrepareMigrate(ctx, l)
	if err != nil {
		return m.abortToSource(l, rec, src, srcHC,
			fmt.Errorf("magistrate %v: drain %v on %v: %w", m.self, l, src, err))
	}
	span.Event("migrate", fmt.Sprintf("%v drained on %v (%d state bytes)", l, src, len(state)))
	m.hook("prepared", l, src, dest.l)

	// Phase 2: checkpoint the shipped state. From here on, even if both
	// hosts die the object recovers exactly as drained.
	ckptAddr, err := m.store.Put(persist.OPR{LOID: l, Impl: implName, State: state})
	if err != nil {
		return m.abortToSource(l, rec, src, srcHC,
			fmt.Errorf("magistrate %v: checkpoint %v: %w", m.self, l, err))
	}
	m.mu.Lock()
	old := rec.ckptAddr
	rec.ckptAddr = ckptAddr
	m.mu.Unlock()
	if old != "" {
		_ = m.store.Delete(old)
	}

	// Phase 3: ship. Start the object on the destination.
	addr, err := destHC.StartObjectCtx(ctx, l, implName, state)
	if err != nil {
		// The destination may have partially started it; best-effort
		// reap before reopening the source.
		_ = destHC.KillObject(l)
		return m.abortToSource(l, rec, src, srcHC,
			fmt.Errorf("magistrate %v: start %v on %v: %w", m.self, l, dest.l, err))
	}
	span.Event("migrate", fmt.Sprintf("%v started on %v at %v", l, dest.l, addr))
	m.hook("shipped", l, src, dest.l)

	// Phase 4: republish. The binding atomically flips to the new home.
	m.mu.Lock()
	if m.table[l.ID()] != rec {
		m.mu.Unlock()
		_ = destHC.KillObject(l)
		_ = srcHC.AbortMigrate(ctx, l)
		return fmt.Errorf("magistrate %v: object %v deleted during migration", m.self, l)
	}
	if !m.hostKnownLocked(dest.l) {
		// Destination crashed between ship and republish: the source
		// incarnation is still whole, so reopen it.
		m.mu.Unlock()
		return m.abortToSource(l, rec, src, srcHC,
			fmt.Errorf("magistrate %v: destination %v failed before republish", m.self, dest.l))
	}
	m.place(rec, dest.l, addr)
	b := m.bindingLocked(l, addr)
	m.mu.Unlock()
	m.notifyClass(l, b)
	span.Event("migrate", fmt.Sprintf("%v binding republished -> %v", l, addr))
	m.hook("republished", l, src, dest.l)

	// Phase 5: commit. The source kills its incarnation and forwards
	// parked + late frames one hop to the new home. A failure here is
	// tolerable: if the source host died, its parked frames died with
	// it and their callers heal via retry + binding refresh.
	if err := srcHC.FinishMigrate(ctx, l, addr); err != nil {
		m.reg().Counter("mig/finish_failed").Inc()
		span.Event("migrate", fmt.Sprintf("%v commit on %v failed: %v (callers heal via refresh)", l, src, err))
	}
	m.hook("committed", l, src, dest.l)
	return nil
}

// abortToSource unwinds a migration that failed before republish. If
// the source host is still in the jurisdiction, the object reopens
// there (parked calls replay in order) and remains the active
// incarnation. If the source died meanwhile, the record settles inert
// — promoting the migration checkpoint when phase 2 wrote one — and
// reactivates in the background, exactly as HostFailed would have done
// had the record not been migrating.
func (m *Magistrate) abortToSource(l loid.LOID, rec *record, src loid.LOID, srcHC *host.Client, cause error) error {
	m.mu.Lock()
	srcAlive := m.hostKnownLocked(src)
	m.mu.Unlock()
	if srcAlive {
		if err := srcHC.AbortMigrate(context.Background(), l); err != nil {
			m.reg().Counter("mig/abort_failed").Inc()
		}
		return cause
	}
	// Source is gone: settle the record inert so reactivation brings
	// the object back from the best persistent representation.
	m.mu.Lock()
	var revive []loid.LOID
	if rec.active && rec.host.SameObject(src) {
		m.unplace(rec)
		if rec.ckptAddr != "" {
			if rec.oprAddr != "" {
				_ = m.store.Delete(rec.oprAddr)
			}
			rec.oprAddr = rec.ckptAddr
			rec.ckptAddr = ""
		} else if rec.oprAddr == "" {
			if a, perr := m.store.Put(persist.OPR{LOID: l, Impl: rec.impl}); perr == nil {
				rec.oprAddr = a
			}
		}
		revive = append(revive, l.ID())
	}
	survivors := len(m.hosts) > 0
	m.mu.Unlock()
	if len(revive) > 0 && survivors {
		go m.reactivate(revive)
	}
	return cause
}

// hostKnownLocked reports whether h is currently in the jurisdiction's
// host list (m.mu held).
func (m *Magistrate) hostKnownLocked(h loid.LOID) bool {
	for _, he := range m.hosts {
		if he.l.SameObject(h) {
			return true
		}
	}
	return false
}
