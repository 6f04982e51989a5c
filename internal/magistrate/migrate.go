// Live migration, magistrate side, and the steps it shares with
// Deactivate: both planned exits drain objects and file their states
// (drainAndFile), then finish or reopen the source (abortToSource). A
// move (move) takes a set of residents to one destination through one
// start round: MigrateObject moves a set of one, MoveResidents a set the
// Magistrate picks from its own table. Whichever side dies mid-flight,
// each object ends with exactly one incarnation (or one authoritative
// persistent representation awaiting reactivation), never zero and
// never two.
//
// The same file carries the jurisdiction's load table (ReportLoad
// heartbeats from Host Objects), the GetLoads view Scheduling Agents
// consume, and the in-process placement read (Placements).

package magistrate

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
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

// MigrateObject moves a running object to destHost without failing a
// single call: it is a move (move) of a set of one. A no-op if the
// object already runs on destHost.
func (m *Magistrate) MigrateObject(ctx context.Context, l, destHost loid.LOID) error {
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
	m.claimLocked(rec)
	set := []*starting{{rec: rec, opr: persist.OPR{LOID: l}, src: rec.host}}
	m.mu.Unlock()
	_, err := m.move(ctx, set, destHost)
	return err
}

// moveResidents moves up to n residents of host from to host to, in one
// move (move), and returns how many moved. A resident is taken if it is
// active on from, not claimed, and admitted on to by the activation
// filter, in (ClassID, ClassSpecific) order, so a rebalancing round is
// reproducible. The residents are picked and claimed in one critical
// section, in one walk of the table.
func (m *Magistrate) moveResidents(ctx context.Context, from, to loid.LOID, n uint64) (uint64, error) {
	m.mu.Lock()
	if !m.hostKnownLocked(to) {
		m.mu.Unlock()
		return 0, fmt.Errorf("magistrate %v: destination host %v not in jurisdiction", m.self, to)
	}
	var set []*starting
	for id, rec := range m.table {
		o := persist.OPR{LOID: id.LOID(), Impl: rec.impl}
		if rec.active && !rec.busy && rec.host.SameObject(from) && !rec.host.SameObject(to) && m.admitLocked(to, o) == nil {
			set = append(set, &starting{rec: rec, opr: o, src: rec.host})
		}
	}
	slices.SortFunc(set, func(a, b *starting) int {
		x, y := a.opr.LOID, b.opr.LOID
		return cmp.Or(cmp.Compare(x.ClassID, y.ClassID), cmp.Compare(x.ClassSpecific, y.ClassSpecific))
	})
	set = set[:min(n, uint64(len(set)))]
	for _, s := range set {
		m.claimLocked(s.rec)
	}
	m.mu.Unlock()
	if len(set) == 0 {
		return 0, nil
	}
	return m.move(ctx, set, to)
}

// move takes set, each object claimed and running on set[0].src, to
// dest without failing a single call (DESIGN §10), and returns how many
// moved, with the last error if any did not. The set is drained and
// filed (drainAndFile) and started on dest by one start round pinned
// there; the source then evicts the started objects in one call and
// reopens the rest in another (abortToSource), the classes are told, and
// the set is settled (settle), which recovers in one round the objects
// whose host died under them (HostFailed skips claimed records); those
// count as not moved, with an error. The
// phase hooks fire per object: "prepared" after its drain, "shipped"
// once the start call answered, "republished" after the round's commit,
// and "committed" after the eviction.
func (m *Magistrate) move(ctx context.Context, set []*starting, dest loid.LOID) (moved uint64, err error) {
	reg := m.reg()
	reg.Counter("mig/attempts").Add(uint64(len(set)))
	t0 := m.now()
	src := set[0].src
	span := m.tracer().RootAlways("call", "migrate", "magistrate")
	for _, s := range set {
		span.Event("migrate", fmt.Sprintf("%v: %v -> %v", s.opr.LOID, src, dest))
	}

	// Phases 1 and 2: drain on the source and file the drained state.
	// From here on, even if both hosts die an object recovers exactly as
	// drained: the commit or the abort makes it the checkpoint.
	filed := m.drainAndFile(ctx, set, func(s *starting) {
		span.Event("migrate", fmt.Sprintf("%v drained on %v (%d state bytes)", s.opr.LOID, src, len(s.opr.State)))
		m.hook("prepared", s.opr.LOID, src, dest)
	})

	// Phases 3 and 4: ship and republish. The start round, pinned to the
	// destination, starts the filed objects there and commits them, the
	// claims still held; a start it did not commit is reaped.
	m.startSet(ctx, set[:filed], dest, hostEntry{}, roundHooks{after: func(take []*starting, err error) {
		if err != nil {
			return
		}
		for _, s := range take {
			m.hook("shipped", s.opr.LOID, src, dest)
		}
	}})
	var gone []loid.LOID
	var to oa.Address
	for _, s := range set {
		if !s.on.IsNil() {
			span.Event("migrate", fmt.Sprintf("%v binding republished -> %v", s.opr.LOID, s.b.Address))
			m.hook("republished", s.opr.LOID, src, dest)
			gone, to = append(gone, s.opr.LOID), s.b.Address
		}
	}
	if back := slices.DeleteFunc(slices.Clone(set), func(s *starting) bool { return !s.on.IsNil() }); len(back) > 0 {
		m.abortToSource(back)
	}
	// Phase 5: commit. The source kills the started incarnations and
	// forwards parked + late frames one hop to the new home. A failure is
	// tolerable: a dead source's parked frames died with it, and their
	// callers heal via retry + refresh. The classes are told after it: a
	// class object in the set parks its calls at the source until then.
	if len(gone) > 0 {
		if _, ferr := host.EvictObjects.Call(ctx, m.obj.Caller().To(src), gone, to); ferr != nil {
			reg.Counter("mig/finish_failed").Inc()
			span.Event("migrate", fmt.Sprintf("commit of %d on %v failed: %v (callers heal via refresh)", len(gone), src, ferr))
		}
	}
	m.notifyClasses(ctx, set)
	for _, s := range set {
		if s.on.IsNil() {
			reg.Counter("mig/aborts").Inc()
			err = s.err
			continue
		}
		m.hook("committed", s.opr.LOID, src, dest)
	}
	// An object counts as moved only if settle did not find it lost: a
	// destination that died after the commit took it along, and recovery
	// places it wherever its round picks.
	lost := map[loid.Ident]bool{}
	for _, l := range m.settle(set) {
		lost[l.Ident()] = true
		span.Event("migrate", fmt.Sprintf("%v: its host died under the migration; recovering from checkpoint", l))
	}
	for _, s := range set {
		switch {
		case s.on.IsNil():
		case lost[s.opr.LOID.Ident()]:
			err = fmt.Errorf("magistrate %v: %v lost with host %v during its move; recovering from checkpoint", m.self, s.opr.LOID, s.on)
		default:
			reg.Counter("mig/success").Inc()
			reg.Histogram("mig/total").Observe(m.since(t0))
			moved++
		}
	}
	if err != nil {
		span.Finish(wire.ErrApp.String())
	} else {
		span.Finish(wire.OK.String())
	}
	return moved, err
}

// errNotDrained is why an object left out of its source's DrainObjects
// answer did not leave: its drain failed there, and it reopened.
var errNotDrained = errors.New("not drained")

// drainAndFile is the first half of every planned exit. The objects of
// set, all on set[0].src, are drained there in one DrainObjects call
// (arrivals park, each state is saved at a quiesce point), each getting
// its state in opr; drained, if not nil, runs for it then. The states
// are filed in one PutBatch (one group commit), each object getting its
// address in from, which the exit's commit or abort gives the record.
// An object not drained or not filed gets err instead, and the caller
// aborts it (abortToSource). The filed objects end at the front of set,
// in order; it returns how many there are.
func (m *Magistrate) drainAndFile(ctx context.Context, set []*starting, drained func(*starting)) (filed int) {
	src := set[0].src
	got, err := host.DrainObjects.Call(ctx, m.obj.Caller().To(src), loids(set))
	// The host answers the drained objects in the order asked; they move
	// to the front of set.
	for i, s := range set {
		if filed == len(got) || !got[filed].LOID.SameObject(s.opr.LOID) {
			s.err = fmt.Errorf("magistrate %v: drain %v on %v: %w", m.self, s.opr.LOID, src, cmp.Or(err, errNotDrained))
			continue
		}
		s.opr = got[filed]
		if drained != nil {
			drained(s)
		}
		set[filed], set[i] = s, set[filed]
		filed++
	}
	if filed == 0 {
		return 0
	}
	addrs, err := m.store.PutBatch(got[:filed])
	if err != nil {
		for _, s := range set[:filed] {
			s.err = fmt.Errorf("magistrate %v: file %v: %w", m.self, s.opr.LOID, err)
		}
		return 0
	}
	for i, s := range set[:filed] {
		s.from = addrs[i]
	}
	return filed
}

// abortToSource unwinds a planned exit of set, objects that did not
// leave set[0].src. An object's filed state (from), if any, becomes its
// record's checkpoint, the newest state of the object. If the source is
// still in the jurisdiction, the objects reopen there in one call
// (parked calls replay in order); if it died, the caller's settle
// settles each record lost, that checkpoint its OPR, and recovers
// them all in one round.
func (m *Magistrate) abortToSource(set []*starting) {
	stale := make([]persist.PersistentAddress, len(set))
	m.mu.Lock()
	known := m.hostKnownLocked(set[0].src)
	for i, s := range set {
		stale[i] = s.from
		if s.from != "" && m.table[s.opr.LOID.Ident()] == s.rec {
			stale[i], s.rec.filed = s.rec.filed, s.from
		}
	}
	m.mu.Unlock()
	m.drop(stale...)
	// The source reopens even when the caller's budget is spent.
	if known {
		if _, err := host.ReopenObjects.Call(context.Background(), m.obj.Caller().To(set[0].src), loids(set)); err != nil {
			m.reg().Counter("mig/abort_failed").Inc()
		}
	}
}

// loids returns the objects of set.
func loids(set []*starting) []loid.LOID {
	ls := make([]loid.LOID, len(set))
	for i, s := range set {
		ls[i] = s.opr.LOID
	}
	return ls
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
