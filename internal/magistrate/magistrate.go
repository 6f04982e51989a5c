// Package magistrate implements Legion Magistrates (§2.2, §3.8): the
// objects in charge of Jurisdictions. A Magistrate manages a set of
// hosts and some aggregate persistent storage, and performs the
// activation, deactivation, and migration of the Legion objects under
// its control. Magistrates are deliberately mechanism, not policy:
// other objects (classes, Scheduling Agents) call their primitive
// functions, and a Magistrate — as a likely security boundary — may
// refuse any request (its MayI policy and activation filter).
package magistrate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/binding"
	"repro/internal/clock"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Interface is the member-function set every Magistrate exports (§3.8).
var Interface = idl.NewInterface("LegionMagistrate",
	idl.MethodSig{Name: "AddHost",
		Params: []idl.Param{{Name: "host", Type: idl.TLOID}, {Name: "addr", Type: idl.TAddress}}},
	idl.MethodSig{Name: "RemoveHost",
		Params: []idl.Param{{Name: "host", Type: idl.TLOID}}},
	idl.MethodSig{Name: "ListHosts",
		Returns: []idl.Param{{Name: "hosts", Type: idl.TBytes}}},
	idl.MethodSig{Name: "Register",
		Params: []idl.Param{
			{Name: "object", Type: idl.TLOID},
			{Name: "impl", Type: idl.TString},
			{Name: "state", Type: idl.TBytes}}},
	idl.MethodSig{Name: "Activate",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "hostHint", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "Deactivate",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}}},
	idl.MethodSig{Name: "Delete",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}}},
	idl.MethodSig{Name: "Copy",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "to", Type: idl.TLOID}}},
	idl.MethodSig{Name: "Move",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "to", Type: idl.TLOID}}},
	idl.MethodSig{Name: "ReceiveOPR",
		Params: []idl.Param{
			{Name: "object", Type: idl.TLOID},
			{Name: "impl", Type: idl.TString},
			{Name: "state", Type: idl.TBytes}}},
	idl.MethodSig{Name: "Checkpoint",
		Params: []idl.Param{
			{Name: "host", Type: idl.TLOID},
			{Name: "object", Type: idl.TLOID},
			{Name: "impl", Type: idl.TString},
			{Name: "state", Type: idl.TBytes}}},
	idl.MethodSig{Name: "CheckpointBatch",
		Params: []idl.Param{
			{Name: "host", Type: idl.TLOID},
			{Name: "batch", Type: idl.TBytes}},
		Returns: []idl.Param{{Name: "saved", Type: idl.TUint64}}},
	idl.MethodSig{Name: "GetBinding",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "b", Type: idl.TBinding}}},
	idl.MethodSig{Name: "HasObject",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "known", Type: idl.TBool}, {Name: "active", Type: idl.TBool}}},
	idl.MethodSig{Name: "ListObjects",
		Returns: []idl.Param{{Name: "objects", Type: idl.TBytes}}},
	idl.MethodSig{Name: "MigrateObject",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}, {Name: "destHost", Type: idl.TLOID}}},
	idl.MethodSig{Name: "ReportLoad",
		Params: []idl.Param{{Name: "host", Type: idl.TLOID}, {Name: "load", Type: idl.TBytes},
			{Name: "telemetry", Type: idl.TBytes}}},
	idl.MethodSig{Name: "GetLoads",
		Returns: []idl.Param{{Name: "loads", Type: idl.TBytes}}},
	idl.MethodSig{Name: "ListPlacements",
		Returns: []idl.Param{{Name: "placements", Type: idl.TBytes}}},
	idl.MethodSig{Name: "Query",
		Params:  []idl.Param{{Name: "lql", Type: idl.TString}},
		Returns: []idl.Param{{Name: "table", Type: idl.TBytes}}},
)

// ActivationFilter lets a Magistrate implementation refuse to run
// particular objects or implementations — the DOE example of §2.1.3:
// resource providers "can build Magistrates that meet their own
// security and resource access requirements". A nil error admits the
// object.
type ActivationFilter func(object loid.LOID, impl string, onHost loid.LOID) error

type record struct {
	impl    string
	oprAddr persist.PersistentAddress // set iff inert
	// ckptAddr is the newest crash-recovery checkpoint of an ACTIVE
	// object (Host checkpointers ship these via Checkpoint). If the
	// host dies, HostFailed promotes it to oprAddr so the object
	// reactivates with its checkpointed state instead of a blank one.
	ckptAddr persist.PersistentAddress
	// active, host and addr say where the object runs. place and
	// unplace (below) are their only writers: they keep the Magistrate's
	// per-host resident counts in step with the table.
	active bool
	// activating marks an in-flight activation: concurrent Activate
	// calls wait on it rather than starting the object a second time
	// on another host.
	activating bool
	// migrating marks an in-flight live migration (migrate.go). The
	// migration driver owns the record's fate while it is set:
	// Deactivate/Delete wait on it, and HostFailed leaves the record to
	// the driver's own partial-failure settlement.
	migrating bool
	host      loid.LOID  // host running the object, if active
	addr      oa.Address // object address, if active
}

// Magistrate is the Magistrate implementation.
type Magistrate struct {
	self  loid.LOID
	store persist.Store

	mu     sync.Mutex
	cond   *sync.Cond // signals activation completion; tied to mu
	hosts  []hostEntry
	subs   []subEntry // sub-magistrates (jurisdiction hierarchy, §2.2)
	rr     int        // placement cursor (fallback when scores tie)
	table  map[loid.LOID]*record
	filter ActivationFilter

	// loads holds the newest heartbeat load vector per host
	// (ReportLoad); lastPick is the placement hysteresis anchor;
	// oblivious forces the pure rotating-cursor placement of the
	// pre-load-aware magistrate (ablation baselines and experiments
	// that need reactivation to move objects between hosts).
	loads     map[loid.LOID]loadEntry
	lastPick  loid.LOID
	oblivious bool

	// residents counts, per host, the table's records that are active
	// there — the placement score's resident term and Loads()'s view.
	// It is kept, not derived: place/unplace adjust it at the moment a
	// record changes hands, so a pick costs O(hosts), not O(table). It
	// is keyed by host identity, not by membership of m.hosts: a record
	// may outlive its host's place in the pool (a migrating record
	// across HostFailed, any record across RemoveHost/ForgetHosts) and
	// is still counted there until it is unplaced. Zero entries are
	// deleted.
	residents map[loid.LOID]int

	// migHook observes migration phase boundaries (test injection).
	migHook MigrateHook

	// noBulk disables bulk adoption after a host failure, forcing the
	// per-OPR reactivation path (ablation baseline; see
	// SetBulkAdoption). Zero value = bulk adoption enabled.
	noBulk bool
	// adoptHook observes the moment between snapshot export and
	// shipping (chaos injection; see SetAdoptHook).
	adoptHook func(target loid.LOID)

	// plane is the cluster observability plane this Magistrate feeds
	// (heartbeat epochs, piggybacked telemetry, OPR generations,
	// flight-recorder events) and queries for LQL; nil when obs is off.
	plane *obs.Plane

	// BindingTTL bounds the validity of bindings the magistrate hands
	// out; zero means bindings never explicitly expire (§3.5).
	BindingTTL time.Duration

	// clk is the Magistrate's time base for binding TTLs, load
	// staleness, and phase timing histograms (nil = wall). Set once at
	// construction via SetClock, before the Magistrate serves traffic.
	clk clock.Clock

	obj *rt.Object
}

type hostEntry struct {
	l    loid.LOID
	addr oa.Address
}

// New builds a Magistrate persisting OPRs into store.
func New(self loid.LOID, store persist.Store) *Magistrate {
	m := &Magistrate{
		self:      self,
		store:     store,
		table:     make(map[loid.LOID]*record),
		loads:     make(map[loid.LOID]loadEntry),
		residents: make(map[loid.LOID]int),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// LOID returns the Magistrate's name.
func (m *Magistrate) LOID() loid.LOID { return m.self }

// SetClock installs the Magistrate's time base (nil or clock.Wall =
// wall clock). Call before the Magistrate serves traffic.
func (m *Magistrate) SetClock(c clock.Clock) {
	if c == clock.Wall {
		c = nil
	}
	m.clk = c
}

// now reads the Magistrate's clock.
func (m *Magistrate) now() time.Time {
	if m.clk != nil {
		return m.clk.Now()
	}
	return time.Now()
}

// since is now().Sub(t) on the Magistrate's clock.
func (m *Magistrate) since(t time.Time) time.Duration {
	if m.clk != nil {
		return m.clk.Since(t)
	}
	return time.Since(t)
}

// SetFilter installs the activation filter (local configuration by the
// jurisdiction's owner, not a remote method).
func (m *Magistrate) SetFilter(f ActivationFilter) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.filter = f
}

// SetPlane connects this Magistrate to the cluster observability
// plane: its placement table and load view become LQL sources, its
// lifecycle actions log OPR generations and flight-recorder events,
// and the Query member function evaluates against p. nil disconnects.
func (m *Magistrate) SetPlane(p *obs.Plane) {
	m.mu.Lock()
	m.plane = p
	m.mu.Unlock()
	if p == nil {
		return
	}
	p.AddObjectSource(func() []obs.ObjectView {
		ps := m.Placements()
		out := make([]obs.ObjectView, 0, len(ps))
		for _, pl := range ps {
			v := obs.ObjectView{LOID: pl.Object.String(), Impl: pl.Impl, Active: pl.Active}
			if pl.Active {
				v.Host = pl.Host.String()
			}
			out = append(out, v)
		}
		return out
	})
	if sp, ok := m.store.(persist.StatsProvider); ok {
		p.AddStoreSource(func() obs.StoreView {
			st := sp.Stats()
			return obs.StoreView{
				Backend:     st.Backend,
				Records:     st.Records,
				Segments:    st.Segments,
				Quarantined: st.Quarantined,
				GCSegments:  st.GCSegments,
				GCRecords:   st.GCRecords,
				GroupCommit: st.GroupCommit,
			}
		})
	}
	p.AddHostSource(func() []obs.HostView {
		ls := m.Loads()
		out := make([]obs.HostView, 0, len(ls))
		for _, hl := range ls {
			out = append(out, obs.HostView{
				Host:      hl.Host.String(),
				Score:     hl.Load.Score(),
				Residents: hl.Load.Residents,
				Rate:      hl.Load.DispatchRate,
				Mailbox:   hl.Load.MailboxDepth,
				Dirty:     hl.Load.CkptDirty,
				Age:       hl.Age,
			})
		}
		return out
	})
}

// Plane returns the connected observability plane (nil when off).
func (m *Magistrate) Plane() *obs.Plane {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plane
}

// Interface implements rt.Impl.
func (m *Magistrate) Interface() *idl.Interface { return Interface }

// Bind implements rt.Binder.
func (m *Magistrate) Bind(o *rt.Object) { m.obj = o }

// Dispatch implements rt.Impl.
func (m *Magistrate) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	if handled, results, err := m.handleHierarchy(inv); handled {
		return results, err
	}
	switch inv.Method {
	case "AddHost":
		return m.addHost(inv)
	case "RemoveHost":
		l, err := argLOID(inv, 0)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		for i, h := range m.hosts {
			if h.l.SameObject(l) {
				m.hosts = append(m.hosts[:i], m.hosts[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		return nil, nil
	case "ListHosts":
		m.mu.Lock()
		ls := make([]loid.LOID, 0, len(m.hosts))
		for _, h := range m.hosts {
			ls = append(ls, h.l)
		}
		m.mu.Unlock()
		return [][]byte{wire.LOIDList(ls)}, nil
	case "Register", "ReceiveOPR":
		return m.register(inv)
	case "Checkpoint":
		return m.checkpoint(inv)
	case "CheckpointBatch":
		return m.checkpointBatch(inv)
	case "Activate":
		return m.activate(inv)
	case "Deactivate":
		return m.deactivate(inv)
	case "Delete":
		return m.delete(inv)
	case "Copy":
		return m.copyTo(inv, false)
	case "Move":
		return m.copyTo(inv, true)
	case "GetBinding":
		return m.getBinding(inv)
	case "MigrateObject":
		return m.migrateObject(inv)
	case "ReportLoad":
		return m.reportLoad(inv)
	case "GetLoads":
		return [][]byte{marshalLoads(m.Loads())}, nil
	case "ListPlacements":
		return [][]byte{marshalPlacements(m.Placements())}, nil
	case "Query":
		q, err := argString(inv, 0)
		if err != nil {
			return nil, err
		}
		t, err := m.Plane().Query(q)
		if err != nil {
			return nil, err
		}
		return [][]byte{t.Marshal()}, nil
	case "HasObject":
		l, err := argLOID(inv, 0)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		rec, known := m.table[l.ID()]
		active := known && rec.active
		m.mu.Unlock()
		if !known {
			// The hierarchy presents the union of its jurisdictions.
			if out, delegated, err := m.delegate(l, func(sc *Client) ([][]byte, error) {
				k, a, err := sc.HasObject(l)
				if err != nil {
					return nil, err
				}
				return [][]byte{wire.Bool(k), wire.Bool(a)}, nil
			}); delegated {
				return out, err
			}
		}
		return [][]byte{wire.Bool(known), wire.Bool(active)}, nil
	case "ListObjects":
		m.mu.Lock()
		ls := make([]loid.LOID, 0, len(m.table))
		for l := range m.table {
			ls = append(ls, l)
		}
		m.mu.Unlock()
		return [][]byte{wire.LOIDList(ls)}, nil
	}
	return nil, &rt.NoSuchMethodError{Method: inv.Method}
}

func (m *Magistrate) addHost(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	raw, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	addr, err := wire.AsAddress(raw)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.hosts {
		if m.hosts[i].l.SameObject(l) {
			m.hosts[i].addr = addr
			m.seedHost(l, addr)
			return nil, nil
		}
	}
	m.hosts = append(m.hosts, hostEntry{l: l, addr: addr})
	m.seedHost(l, addr)
	return nil, nil
}

// seedHost caches the host's binding so the magistrate can call it by
// LOID.
func (m *Magistrate) seedHost(l loid.LOID, addr oa.Address) {
	if m.obj != nil {
		m.obj.Caller().AddBinding(binding.Forever(l, addr))
	}
}

func (m *Magistrate) register(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	implName, err := argString(inv, 1)
	if err != nil {
		return nil, err
	}
	state, err := inv.Arg(2)
	if err != nil {
		return nil, err
	}
	oprAddr, err := m.store.Put(persist.OPR{LOID: l, Impl: implName, State: state})
	if err != nil {
		return nil, fmt.Errorf("magistrate %v: %w", m.self, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.table[l.ID()]; ok {
		// Replace any previous persistent representations.
		if old.oprAddr != "" {
			_ = m.store.Delete(old.oprAddr)
		}
		if old.ckptAddr != "" {
			_ = m.store.Delete(old.ckptAddr)
		}
		m.unplace(old) // it leaves the table
	}
	m.table[l.ID()] = &record{impl: implName, oprAddr: oprAddr}
	noteGeneration(m.plane, l, "register", loid.Nil, len(state))
	return nil, nil
}

// checkpoint files a crash-recovery snapshot of an active object into
// the Jurisdiction's store. Only the newest checkpoint is kept. A
// checkpoint for an object the Magistrate no longer believes active is
// dropped: the deactivation path has already persisted authoritative
// (post-shutdown) state.
func (m *Magistrate) checkpoint(inv *rt.Invocation) ([][]byte, error) {
	fromHost, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	l, err := argLOID(inv, 1)
	if err != nil {
		return nil, err
	}
	implName, err := argString(inv, 2)
	if err != nil {
		return nil, err
	}
	state, err := inv.Arg(3)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	rec, ok := m.table[l.ID()]
	live := ok && rec.active && rec.host.SameObject(fromHost)
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("magistrate %v: checkpoint for unknown object %v", m.self, l)
	}
	if !live {
		return nil, nil // deactivated or migrated since the host sampled it
	}
	newAddr, err := m.store.Put(persist.OPR{LOID: l, Impl: implName, State: state})
	if err != nil {
		return nil, fmt.Errorf("magistrate %v: checkpoint %v: %w", m.self, l, err)
	}
	m.mu.Lock()
	rec2, ok := m.table[l.ID()]
	if !ok || rec2 != rec || !rec2.active || !rec2.host.SameObject(fromHost) {
		// The object's life changed while we wrote; the new file is
		// not the truth anymore.
		m.mu.Unlock()
		_ = m.store.Delete(newAddr)
		return nil, nil
	}
	old := rec2.ckptAddr
	rec2.ckptAddr = newAddr
	plane := m.plane
	m.mu.Unlock()
	if old != "" {
		_ = m.store.Delete(old)
	}
	noteGeneration(plane, l, "checkpoint", fromHost, len(state))
	return nil, nil
}

// activate implements the overloaded Activate(LOID) and
// Activate(LOID, LOID) of §3.8. The host hint may be the nil LOID.
func (m *Magistrate) activate(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	var hint loid.LOID
	if len(inv.Args) > 1 {
		if hint, err = wire.AsLOID(inv.Args[1]); err != nil {
			return nil, err
		}
	}
	b, known, err := m.activateLocal(inv.Ctx(), l, hint)
	if !known {
		// Delegate down the hierarchy (§2.2).
		if out, delegated, derr := m.delegate(l, func(sc *Client) ([][]byte, error) {
			b, err := sc.ActivateCtx(inv.Ctx(), l, hint)
			if err != nil {
				return nil, err
			}
			return [][]byte{wire.Binding(b)}, nil
		}); delegated {
			return out, derr
		}
		return nil, fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	if err != nil {
		return nil, err
	}
	return [][]byte{wire.Binding(b)}, nil
}

// activateLocal activates an object this jurisdiction knows directly.
// known reports whether the object is in the local table at all (false
// lets the caller try hierarchy delegation). Both the Activate method
// and crash reactivation funnel through here.
func (m *Magistrate) activateLocal(ctx context.Context, l, hint loid.LOID) (b binding.Binding, known bool, err error) {
	for {
		m.mu.Lock()
		rec, ok := m.table[l.ID()]
		if !ok {
			m.mu.Unlock()
			return binding.Binding{}, false, nil
		}
		if rec.active {
			b := m.bindingLocked(l, rec.addr)
			m.mu.Unlock()
			return b, true, nil
		}
		if rec.activating {
			// Another worker is starting this object; wait for the
			// outcome and re-examine rather than double-activating.
			m.cond.Wait()
			m.mu.Unlock()
			continue
		}
		h, err := m.pickHostLocked(hint)
		if err != nil {
			m.mu.Unlock()
			return binding.Binding{}, true, err
		}
		implName, oprAddr := rec.impl, rec.oprAddr
		if m.filter != nil {
			if ferr := m.filter(l, implName, h.l); ferr != nil {
				m.mu.Unlock()
				return binding.Binding{}, true, fmt.Errorf("magistrate %v refuses to activate %v: %w", m.self, l, ferr)
			}
		}
		rec.activating = true
		m.mu.Unlock()

		b, err := m.startOn(ctx, l, rec, h, implName, oprAddr)
		m.mu.Lock()
		rec.activating = false
		m.cond.Broadcast()
		m.mu.Unlock()
		return b, true, err
	}
}

// startOn performs the unlocked portion of an activation; exactly one
// goroutine runs it per object at a time (the activating guard).
func (m *Magistrate) startOn(ctx context.Context, l loid.LOID, rec *record, h hostEntry, implName string, oprAddr persist.PersistentAddress) (binding.Binding, error) {
	opr, err := m.store.Get(oprAddr)
	if errors.Is(err, persist.ErrCorrupt) {
		// The representation is damaged (now quarantined by the store).
		// Availability beats amnesia: bring the object back with empty
		// state rather than leaving it permanently unactivatable.
		m.reg().Counter("mag/opr_corrupt").Inc()
		sp := m.tracer().RootAlways("serve", "opr.corrupt", "magistrate")
		sp.Event("opr.corrupt", fmt.Sprintf("%v: %v", l, err))
		sp.Finish(wire.ErrApp.String())
		opr, err = persist.OPR{LOID: l, Impl: implName}, nil
	}
	if err != nil {
		return binding.Binding{}, fmt.Errorf("magistrate %v: opr for %v: %w", m.self, l, err)
	}
	hc := host.NewClient(m.obj.Caller(), h.l)
	addr, err := hc.StartObjectCtx(ctx, l, opr.Impl, opr.State)
	if err != nil {
		return binding.Binding{}, fmt.Errorf("magistrate %v: start %v on %v: %w", m.self, l, h.l, err)
	}
	// The state now lives in the running object; drop the stale OPR.
	_ = m.store.Delete(oprAddr)
	m.mu.Lock()
	// The object may have been deleted (or its record replaced) while we
	// were starting it; in that case reap the orphan instead of recording
	// it.
	if m.table[l.ID()] != rec {
		m.mu.Unlock()
		_ = hc.KillObject(l)
		return binding.Binding{}, fmt.Errorf("magistrate %v: object %v deleted during activation", m.self, l)
	}
	m.place(rec, h.l, addr)
	rec.oprAddr = ""
	if rec.ckptAddr != "" && rec.ckptAddr != oprAddr {
		// A leftover checkpoint from a previous incarnation is stale
		// the moment the object restarts from the authoritative OPR.
		_ = m.store.Delete(rec.ckptAddr)
	}
	rec.ckptAddr = ""
	b := m.bindingLocked(l, addr)
	plane := m.plane
	m.mu.Unlock()
	noteGeneration(plane, l, "activate", h.l, len(opr.State))
	if plane != nil {
		plane.Record(obs.KindActivate, l.ID().String(), "started on "+h.l.String(), trace.FromContext(ctx).TraceID)
	}
	return b, nil
}

// HostFailed records the crash of a host (invoked by whatever failure
// detector notices it — in the simulator, the chaos controller). Every
// object that was active on h becomes inert again. An object with a
// checkpoint has it promoted to its authoritative OPR, so it comes
// back with its last checkpointed state; one without any persistent
// representation restarts from its initial (empty) state — a crash
// loses the host's volatile memory. In-flight activations onto h are
// left to fail on their own and re-examine.
//
// If surviving hosts remain, the affected objects are reactivated
// EAGERLY in the background ("the Magistrate can always activate the
// object using the information in the OPR", §3.1.1) and the class
// objects are told the new addresses; callers racing ahead of that
// heal through the ordinary stale-binding refresh path either way.
// The affected LOIDs are returned so callers can log or wait on them.
func (m *Magistrate) HostFailed(h loid.LOID) []loid.LOID {
	m.mu.Lock()
	for i, he := range m.hosts {
		if he.l.SameObject(h) {
			m.hosts = append(m.hosts[:i], m.hosts[i+1:]...)
			break
		}
	}
	var affected []loid.LOID
	for id, rec := range m.table {
		// Migrating records are left to the migration driver: it
		// re-checks host liveness at every phase boundary and runs this
		// same checkpoint-promotion settlement itself, so flipping the
		// record here would race it into a second incarnation.
		if !rec.active || !rec.host.SameObject(h) || rec.activating || rec.migrating {
			continue
		}
		m.unplace(rec)
		promoted := false
		if rec.ckptAddr != "" {
			// Recover from the newest checkpoint.
			if rec.oprAddr != "" {
				_ = m.store.Delete(rec.oprAddr)
			}
			rec.oprAddr = rec.ckptAddr
			rec.ckptAddr = ""
			promoted = true
		} else if rec.oprAddr == "" {
			// The running state died with the host; persist a blank
			// OPR so the record is activatable again.
			if a, err := m.store.Put(persist.OPR{LOID: id, Impl: rec.impl}); err == nil {
				rec.oprAddr = a
			}
		}
		if promoted {
			noteGeneration(m.plane, id, "promote", h, 0)
		}
		affected = append(affected, id)
	}
	survivors := len(m.hosts) > 0
	_, canExport := m.store.(persist.SnapshotExporter)
	bulk := !m.noBulk && canExport && len(affected) >= 2
	plane := m.plane
	m.mu.Unlock()
	if plane != nil {
		plane.Record(obs.KindFailover, h.String(),
			fmt.Sprintf("host failed, %d objects affected (survivors=%v)", len(affected), survivors), 0)
	}
	if len(affected) > 0 && survivors {
		if bulk {
			go m.bulkAdopt(affected)
		} else {
			go m.reactivate(affected)
		}
	}
	return affected
}

// reactivate brings crashed residents back on surviving hosts and
// repairs the naming chain: each object's class is told the new
// address (NotifyAddress), which updates the instance row and pushes
// the fresh binding to subscribed Binding Agents. Failures are left
// for the refresh path — an object that cannot start now will be
// retried by the next caller that misses on it.
func (m *Magistrate) reactivate(ls []loid.LOID) {
	span := m.tracer().RootAlways("call", "reactivate", "magistrate")
	reg := m.reg()
	for _, l := range ls {
		t0 := m.now()
		b, known, err := m.activateLocal(context.Background(), l, loid.Nil)
		if !known || err != nil {
			span.Event("reactivate", fmt.Sprintf("%v failed: %v", l, err))
			reg.Counter("mag/reactivate_failed").Inc()
			continue
		}
		reg.Counter("mag/reactivations").Inc()
		reg.Histogram("mag/reactivate").Observe(m.since(t0))
		span.Event("reactivate", fmt.Sprintf("%v -> %v", l, b.Address))
		m.notifyClass(l, b)
	}
	span.Finish(wire.OK.String())
}

// notifyClass tells an object's class object about its new address so
// the instance table and any pushed bindings stay coherent. Best
// effort: a class that cannot be reached (or does not know the
// instance) is healed later by its own refresh machinery.
func (m *Magistrate) notifyClass(l loid.LOID, b binding.Binding) {
	cl := l.ClassLOID()
	if cl.IsNil() || cl.SameObject(l) {
		return
	}
	res, err := m.obj.Caller().Call(cl, "NotifyAddress", wire.LOID(l), wire.Address(b.Address))
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		m.reg().Counter("mag/notify_class_failed").Inc()
	}
}

// reg returns the metrics registry of the magistrate's node (Nop when
// the magistrate is not spawned yet).
func (m *Magistrate) reg() *metrics.Registry {
	if m.obj == nil {
		return metrics.Nop
	}
	return m.obj.Node().Registry()
}

// tracer returns the node's tracer; nil (a no-op) when unspawned.
func (m *Magistrate) tracer() *trace.Tracer {
	if m.obj == nil {
		return nil
	}
	return m.obj.Node().Tracer()
}

// ForgetHosts drops every host and sub-magistrate address learned in a
// previous life. Used when a snapshot is restored into a fresh
// process: live hosts re-join via AddHost with their new addresses,
// and entries that never come back must not linger in the placement
// pool.
func (m *Magistrate) ForgetHosts() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hosts = nil
}

// HostRecovered re-admits a restarted host to the jurisdiction (the
// simulator's restart path; production hosts re-register via AddHost).
func (m *Magistrate) HostRecovered(h loid.LOID, addr oa.Address) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.hosts {
		if m.hosts[i].l.SameObject(h) {
			m.hosts[i].addr = addr
			m.seedHost(h, addr)
			return
		}
	}
	m.hosts = append(m.hosts, hostEntry{l: h, addr: addr})
	m.seedHost(h, addr)
}

func (m *Magistrate) bindingLocked(l loid.LOID, addr oa.Address) binding.Binding {
	if m.BindingTTL > 0 {
		return binding.Until(l, addr, m.now().Add(m.BindingTTL))
	}
	return binding.Forever(l, addr)
}

// waitSettledLocked waits (on m.cond, m.mu held) until l's record has
// no in-flight activation or migration, then returns it. The record is
// re-looked-up on every wake: it may be deleted while we wait.
func (m *Magistrate) waitSettledLocked(id loid.LOID) (*record, bool) {
	for {
		rec, ok := m.table[id]
		if !ok {
			return nil, false
		}
		if !rec.activating && !rec.migrating {
			return rec, true
		}
		m.cond.Wait()
	}
}

// placeHysteresis is the score margin the previous pick is allowed to
// trail the best host by and still be chosen again. Resident counts
// are whole numbers, so a margin below 1 means hysteresis only damps
// the FRACTIONAL (backlog/rate) part of the score: with equal
// populations the cursor still rotates like round-robin, but transient
// queue wiggles don't bounce placement between equally-populated
// hosts.
const placeHysteresis = 0.5

// loadStaleAfter bounds how old a heartbeat may be and still influence
// placement; older reports (or a host that never reported) contribute
// resident count alone.
const loadStaleAfter = 2 * time.Second

// pickHostLocked applies the host hint, or least-loaded-with-
// hysteresis placement over the jurisdiction's hosts. The resident
// count is the magistrate's own (m.residents, current as of the last
// place/unplace); the dynamic terms — mailbox backlog, dispatch rate,
// checkpoint pressure — come from the hosts' heartbeat load vectors
// when fresh. With idle, equally-populated hosts the policy degenerates
// to round-robin. The cost is O(hosts) with no allocation, whatever the
// size of the jurisdiction's table (§5: no core object's work per
// request may grow with the system).
func (m *Magistrate) pickHostLocked(hint loid.LOID) (hostEntry, error) {
	if len(m.hosts) == 0 {
		return hostEntry{}, fmt.Errorf("magistrate %v has no hosts", m.self)
	}
	if !hint.IsNil() {
		for _, h := range m.hosts {
			if h.l.SameObject(hint) {
				return h, nil
			}
		}
		return hostEntry{}, fmt.Errorf("magistrate %v: hinted host %v not in jurisdiction", m.self, hint)
	}
	if len(m.hosts) == 1 {
		return m.hosts[0], nil
	}
	if m.oblivious {
		h := m.hosts[m.rr%len(m.hosts)]
		m.rr++
		m.lastPick = h.l
		return h, nil
	}
	now := m.now()
	var best, last hostEntry
	bestScore, lastScore := 0.0, 0.0
	haveBest, haveLast := false, false
	// Start the scan at the cursor so ties rotate instead of piling
	// onto the first host.
	n := len(m.hosts)
	for i := 0; i < n; i++ {
		h := m.hosts[(m.rr+i)%n]
		s := float64(m.residents[h.l.ID()])
		if le, ok := m.loads[h.l.ID()]; ok && now.Sub(le.at) < loadStaleAfter {
			s += le.ld.Score() - float64(le.ld.Residents)
		}
		if !haveBest || s < bestScore {
			best, bestScore, haveBest = h, s, true
		}
		if h.l.SameObject(m.lastPick) {
			last, lastScore, haveLast = h, s, true
		}
	}
	if haveLast && lastScore < bestScore+placeHysteresis {
		best = last
	}
	m.rr++
	m.lastPick = best.l
	return best, nil
}

// place records that rec runs on host at addr; unplace, that it runs
// nowhere (it went inert, or is leaving the table). Together they are
// the only code that writes rec.active, rec.host and rec.addr, and so
// the one place m.residents changes: after either returns, every
// host's count equals the number of active records of m.table placed
// there (CheckResidentCounts recounts). rec must be the table's record
// for its object — callers that dropped m.mu since they looked it up
// re-check m.table[id] == rec first — and m.mu must be held.
func (m *Magistrate) place(rec *record, host loid.LOID, addr oa.Address) {
	m.unplace(rec)
	rec.active, rec.host, rec.addr = true, host, addr
	m.residents[host.ID()]++
}

// unplace is a no-op on an inert record. The host need not be in
// m.hosts any more: counts are keyed by host identity, not by pool
// membership.
func (m *Magistrate) unplace(rec *record) {
	if !rec.active {
		return
	}
	h := rec.host.ID()
	if n := m.residents[h]; n > 1 {
		m.residents[h] = n - 1
	} else {
		delete(m.residents, h)
	}
	rec.active, rec.host, rec.addr = false, loid.Nil, oa.Address{}
}

// CheckResidentCounts recounts the table and reports the first host
// whose kept resident count differs from it — the invariant place and
// unplace maintain. O(table): for tests and experiment epilogues, not
// for any request path.
func (m *Magistrate) CheckResidentCounts() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// excess[h] = kept count minus the table's count.
	excess := make(map[loid.LOID]int, len(m.residents))
	for h, n := range m.residents {
		excess[h] = n
	}
	for _, rec := range m.table {
		if rec.active {
			excess[rec.host.ID()]--
		}
	}
	for h, d := range excess {
		if d != 0 {
			kept := m.residents[h]
			return fmt.Errorf("magistrate %v: host %v: kept resident count %d, table holds %d", m.self, h, kept, kept-d)
		}
	}
	return nil
}

// noteGeneration appends one entry to l's OPR history when an
// observability plane is attached; without one nothing is formatted.
// A nil host is logged as "".
func noteGeneration(p *obs.Plane, l loid.LOID, kind string, host loid.LOID, bytes int) {
	if p == nil {
		return
	}
	hs := ""
	if !host.IsNil() {
		hs = host.String()
	}
	p.NoteGeneration(l.ID().String(), kind, hs, bytes)
}

func (m *Magistrate) deactivate(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	if err := m.deactivateByLOID(l); err != nil {
		return nil, err
	}
	return nil, nil
}

func (m *Magistrate) deactivateByLOID(l loid.LOID) error {
	m.mu.Lock()
	rec, ok := m.waitSettledLocked(l.ID())
	if !ok {
		m.mu.Unlock()
		if _, delegated, derr := m.delegate(l, func(sc *Client) ([][]byte, error) {
			return nil, sc.Deactivate(l)
		}); delegated {
			return derr
		}
		return fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	if !rec.active {
		m.mu.Unlock()
		return nil // already inert
	}
	hostL := rec.host
	m.mu.Unlock()

	hc := host.NewClient(m.obj.Caller(), hostL)
	state, implName, err := hc.StopObject(l)
	if err != nil {
		return fmt.Errorf("magistrate %v: stop %v: %w", m.self, l, err)
	}
	oprAddr, err := m.store.Put(persist.OPR{LOID: l, Impl: implName, State: state})
	if err != nil {
		return fmt.Errorf("magistrate %v: persist %v: %w", m.self, l, err)
	}
	m.mu.Lock()
	m.unplace(rec)
	rec.oprAddr = oprAddr
	rec.impl = implName
	ckpt := rec.ckptAddr
	rec.ckptAddr = ""
	plane := m.plane
	m.mu.Unlock()
	if ckpt != "" {
		// The clean-shutdown OPR supersedes any crash checkpoint.
		_ = m.store.Delete(ckpt)
	}
	noteGeneration(plane, l, "deactivate", hostL, len(state))
	return nil
}

func (m *Magistrate) delete(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	if err := m.deleteByLOID(l); err != nil {
		return nil, err
	}
	return nil, nil
}

func (m *Magistrate) deleteByLOID(l loid.LOID) error {
	m.mu.Lock()
	rec, ok := m.waitSettledLocked(l.ID())
	if !ok {
		m.mu.Unlock()
		if _, delegated, derr := m.delegate(l, func(sc *Client) ([][]byte, error) {
			return nil, sc.Delete(l)
		}); delegated {
			return derr
		}
		return fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	active, hostL, oprAddr, ckptAddr := rec.active, rec.host, rec.oprAddr, rec.ckptAddr
	m.unplace(rec) // it leaves the table
	delete(m.table, l.ID())
	m.mu.Unlock()

	if active {
		hc := host.NewClient(m.obj.Caller(), hostL)
		if err := hc.KillObject(l); err != nil {
			return fmt.Errorf("magistrate %v: kill %v: %w", m.self, l, err)
		}
	}
	if oprAddr != "" {
		_ = m.store.Delete(oprAddr)
	}
	if ckptAddr != "" {
		_ = m.store.Delete(ckptAddr)
	}
	return nil
}

// copyTo implements Copy (and, with move set, Move = Copy then Delete,
// §3.8).
func (m *Magistrate) copyTo(inv *rt.Invocation, move bool) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	to, err := argLOID(inv, 1)
	if err != nil {
		return nil, err
	}
	// Copy "causes the Magistrate to deactivate the object, creating an
	// Object Persistent Representation" (§3.8).
	if err := m.deactivateByLOID(l); err != nil {
		return nil, err
	}
	m.mu.Lock()
	rec, ok := m.table[l.ID()]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	oprAddr := rec.oprAddr
	m.mu.Unlock()
	opr, err := m.store.Get(oprAddr)
	if err != nil {
		return nil, fmt.Errorf("magistrate %v: %w", m.self, err)
	}
	res, err := m.obj.Caller().Call(to, "ReceiveOPR", wire.LOID(l), wire.String(opr.Impl), opr.State)
	if err != nil {
		return nil, fmt.Errorf("magistrate %v: send OPR to %v: %w", m.self, to, err)
	}
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("magistrate %v: %v rejected OPR: %w", m.self, to, err)
	}
	if move {
		if err := m.deleteByLOID(l); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (m *Magistrate) getBinding(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	rec, ok := m.table[l.ID()]
	if !ok {
		m.mu.Unlock()
		if out, delegated, derr := m.delegate(l, func(sc *Client) ([][]byte, error) {
			b, err := sc.GetBinding(l)
			if err != nil {
				return nil, err
			}
			return [][]byte{wire.Binding(b)}, nil
		}); delegated {
			return out, derr
		}
		return nil, fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	defer m.mu.Unlock()
	if !rec.active {
		return nil, fmt.Errorf("magistrate %v: object %v is inert (use Activate)", m.self, l)
	}
	return [][]byte{wire.Binding(m.bindingLocked(l, rec.addr))}, nil
}

// SaveState implements rt.Impl: the magistrate persists its table and
// host list (OPRs already live in the store).
func (m *Magistrate) SaveState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []byte
	out = wire.Uint64(uint64(len(m.hosts)))
	for _, h := range m.hosts {
		out = h.l.Marshal(out)
		out = h.addr.Marshal(out)
	}
	out = append(out, wire.Uint64(uint64(len(m.subs)))...)
	for _, s := range m.subs {
		out = s.l.Marshal(out)
		out = s.addr.Marshal(out)
	}
	// Every record is saved. An active object's running state dies
	// with the process, so it is recorded as inert-at-restore, pointing
	// at its newest checkpoint when one exists (empty address = blank
	// restart). Inert records keep their authoritative OPR address.
	out = append(out, wire.Uint64(uint64(len(m.table)))...)
	for l, rec := range m.table {
		addr := rec.oprAddr
		if rec.active {
			addr = rec.ckptAddr
		}
		out = l.Marshal(out)
		out = append(out, wire.Uint64(uint64(len(rec.impl)))...)
		out = append(out, rec.impl...)
		out = append(out, wire.Uint64(uint64(len(addr)))...)
		out = append(out, addr...)
	}
	return out, nil
}

// RestoreState implements rt.Impl. Active objects are not part of a
// magistrate's persistent state (they live on hosts); every restored
// record is inert, carrying the best persistent representation known
// at save time — a clean OPR, a crash checkpoint, or (for objects that
// had neither) a freshly minted blank OPR.
func (m *Magistrate) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	take8 := func() (uint64, error) {
		if len(state) < 8 {
			return 0, fmt.Errorf("magistrate: truncated state")
		}
		v, _ := wire.AsUint64(state[:8])
		state = state[8:]
		return v, nil
	}
	nh, err := take8()
	if err != nil {
		return err
	}
	m.hosts = nil
	for i := uint64(0); i < nh; i++ {
		var h hostEntry
		h.l, state, err = loid.Unmarshal(state)
		if err != nil {
			return fmt.Errorf("magistrate: %w", err)
		}
		h.addr, state, err = oa.Unmarshal(state)
		if err != nil {
			return fmt.Errorf("magistrate: %w", err)
		}
		m.hosts = append(m.hosts, h)
	}
	ns, err := take8()
	if err != nil {
		return err
	}
	m.subs = nil
	for i := uint64(0); i < ns; i++ {
		var s subEntry
		s.l, state, err = loid.Unmarshal(state)
		if err != nil {
			return fmt.Errorf("magistrate: %w", err)
		}
		s.addr, state, err = oa.Unmarshal(state)
		if err != nil {
			return fmt.Errorf("magistrate: %w", err)
		}
		m.subs = append(m.subs, s)
	}
	nr, err := take8()
	if err != nil {
		return err
	}
	// The old table's records leave with it; every restored record is
	// inert, so the resident counts restart from zero.
	for _, rec := range m.table {
		m.unplace(rec)
	}
	m.table = make(map[loid.LOID]*record, nr)
	for i := uint64(0); i < nr; i++ {
		var l loid.LOID
		l, state, err = loid.Unmarshal(state)
		if err != nil {
			return fmt.Errorf("magistrate: %w", err)
		}
		ilen, err2 := take8()
		if err2 != nil {
			return err2
		}
		if uint64(len(state)) < ilen {
			return fmt.Errorf("magistrate: truncated impl name")
		}
		implName := string(state[:ilen])
		state = state[ilen:]
		alen, err2 := take8()
		if err2 != nil {
			return err2
		}
		if uint64(len(state)) < alen {
			return fmt.Errorf("magistrate: truncated opr address")
		}
		oprAddr := persist.PersistentAddress(state[:alen])
		state = state[alen:]
		if oprAddr == "" {
			// Active with no checkpoint at save time: the state is
			// gone; mint a blank OPR so the record stays activatable.
			if a, err := m.store.Put(persist.OPR{LOID: l, Impl: implName}); err == nil {
				oprAddr = a
			}
		}
		m.table[l.ID()] = &record{impl: implName, oprAddr: oprAddr}
	}
	if len(state) != 0 {
		return fmt.Errorf("magistrate: %d trailing state bytes", len(state))
	}
	return nil
}

func argLOID(inv *rt.Invocation, i int) (loid.LOID, error) {
	a, err := inv.Arg(i)
	if err != nil {
		return loid.Nil, err
	}
	return wire.AsLOID(a)
}

func argString(inv *rt.Invocation, i int) (string, error) {
	a, err := inv.Arg(i)
	if err != nil {
		return "", err
	}
	return wire.AsString(a), nil
}
