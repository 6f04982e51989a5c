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
	"slices"
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

// The Magistrate's remote methods (§3.8).
var (
	AddHost    = rt.M2("AddHost", rt.LOIDParam("host"), rt.AddressParam("addr"), rt.None)
	RemoveHost = rt.M1("RemoveHost", rt.LOIDParam("host"), rt.None)
	ListHosts  = rt.M0("ListHosts", rt.LOIDListParam("hosts"))
	Register   = rt.M3("Register", rt.LOIDParam("object"), rt.StringParam("impl"), rt.BytesParam("state"), rt.None)
	// Activate's host hint may be absent: the one-argument Activate(LOID)
	// of §3.8. Senders here always pass one, loid.Nil for none.
	Activate = rt.M2("Activate", rt.LOIDParam("object"), rt.LOIDParam("hostHint").Optional(), rt.BindingParam("b"))
	// Instantiate is the Create of §4.2 in one call for a set of
	// objects: each enters the jurisdiction already running.
	Instantiate = rt.M1("Instantiate", rt.Param("set", idl.TBytes, MarshalInstances, UnmarshalInstances), rt.Struct(
		rt.Field(rt.BindingListParam("bindings"), func(r *Instantiated) *[]binding.Binding { return &r.Bindings }),
		rt.Field(rt.StringParam("failure"), func(r *Instantiated) *string { return &r.Failure })))
	Deactivate = rt.M1("Deactivate", rt.LOIDParam("object"), rt.None)
	Delete     = rt.M1("Delete", rt.LOIDParam("object"), rt.None)
	Copy       = rt.M2("Copy", rt.LOIDParam("object"), rt.LOIDParam("to"), rt.None)
	Move       = rt.M2("Move", rt.LOIDParam("object"), rt.LOIDParam("to"), rt.None)
	ReceiveOPR = rt.M3("ReceiveOPR", rt.LOIDParam("object"), rt.StringParam("impl"), rt.BytesParam("state"), rt.None)
	GetBinding = rt.M1("GetBinding", rt.LOIDParam("object"), rt.BindingParam("b"))
	HasObject  = rt.M1("HasObject", rt.LOIDParam("object"), rt.Struct(
		rt.Field(rt.BoolParam("known"), func(s *ObjectState) *bool { return &s.Known }),
		rt.Field(rt.BoolParam("active"), func(s *ObjectState) *bool { return &s.Active })))
	ListObjects   = rt.M0("ListObjects", rt.LOIDListParam("objects"))
	MigrateObject = rt.M2("MigrateObject", rt.LOIDParam("object"), rt.LOIDParam("destHost"), rt.None)
	GetLoads      = rt.M0("GetLoads", rt.Param("loads", idl.TBytes, marshalLoads, UnmarshalLoads))
	// MoveResidents moves up to n residents of host from to host to, in
	// one move (a Scheduling Agent's rebalancing step, §3.7).
	MoveResidents = rt.M3("MoveResidents", rt.LOIDParam("from"), rt.LOIDParam("to"), rt.Uint64Param("n"), rt.Uint64Param("moved"))
	Query         = rt.M1("Query", rt.StringParam("lql"), rt.Param("table", idl.TBytes, (*obs.Table).Marshal, obs.UnmarshalTable))
)

// NotifyAddress is the class-object method a Magistrate calls to report
// the new bindings of a set of the class's objects (§4.1.4), one call
// per class per round. It is declared here, with its sender, because
// package class imports this one; class objects serve it.
var NotifyAddress = rt.M1("NotifyAddress", rt.BindingListParam("objects"), rt.None)

// Instance is one object Instantiate starts: a new object, its
// implementation and initial state, and a host hint (loid.Nil for none).
type Instance struct {
	Object   loid.LOID
	Impl     string
	State    []byte
	HostHint loid.LOID
}

// Instantiated is Instantiate's answer: a binding per instance, in the
// set's order, the zero binding for one that did not start, and why the
// first that did not start failed ("" when all run).
type Instantiated struct {
	Bindings []binding.Binding
	Failure  string
}

// MarshalInstances encodes an Instantiate set.
func MarshalInstances(set []Instance) []byte {
	n := 4
	for _, in := range set {
		n += 2*loid.EncodedSize + 8 + len(in.Impl) + len(in.State)
	}
	w := wire.NewWriter(make([]byte, 0, n))
	w.Count32(len(set))
	for _, in := range set {
		w.LOID(in.Object)
		w.Str32(in.Impl)
		w.Bytes32(in.State)
		w.LOID(in.HostHint)
	}
	return w.Bytes()
}

// UnmarshalInstances decodes an Instantiate set. The states alias b.
func UnmarshalInstances(b []byte) ([]Instance, error) {
	r := wire.NewReader(b)
	// Each instance is two LOIDs and two 4-byte lengths at least.
	set := make([]Instance, r.Count32(2*loid.EncodedSize+8))
	for i := range set {
		set[i] = Instance{r.LOID(), r.Str32(wire.NoCap), r.Bytes32(wire.NoCap), r.LOID()}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("magistrate: instance set: %w", err)
	}
	return set, nil
}

// ObjectState is HasObject's answer: whether the Magistrate knows an
// object and whether it is active.
type ObjectState struct{ Known, Active bool }

var server = rt.NewServer("LegionMagistrate",
	rt.Serve2(AddHost, (*Magistrate).addHost),
	rt.Serve1(RemoveHost, (*Magistrate).removeHost),
	rt.Serve0(ListHosts, (*Magistrate).listHosts),
	rt.Serve3(Register, (*Magistrate).register),
	rt.Serve2(Activate, (*Magistrate).activate),
	rt.Serve1(Instantiate, (*Magistrate).instantiate),
	rt.Serve1(Deactivate, func(m *Magistrate, ctx context.Context, l loid.LOID) (rt.Void, error) {
		return rt.Void{}, m.deactivateByLOID(ctx, l)
	}),
	rt.Serve1(Delete, func(m *Magistrate, ctx context.Context, l loid.LOID) (rt.Void, error) {
		return rt.Void{}, m.deleteByLOID(ctx, l)
	}),
	rt.Serve2(Copy, func(m *Magistrate, ctx context.Context, l, to loid.LOID) (rt.Void, error) {
		return rt.Void{}, m.copyTo(ctx, l, to, false)
	}),
	rt.Serve2(Move, func(m *Magistrate, ctx context.Context, l, to loid.LOID) (rt.Void, error) {
		return rt.Void{}, m.copyTo(ctx, l, to, true)
	}),
	rt.Serve3(ReceiveOPR, (*Magistrate).register),
	rt.Serve2(host.CheckpointBatch, (*Magistrate).checkpointBatch),
	rt.Serve1(GetBinding, (*Magistrate).getBinding),
	rt.Serve1(HasObject, (*Magistrate).hasObject),
	rt.Serve0(ListObjects, (*Magistrate).listObjects),
	rt.Serve2(MigrateObject, func(m *Magistrate, ctx context.Context, l, dest loid.LOID) (rt.Void, error) {
		return rt.Void{}, m.MigrateObject(ctx, l, dest)
	}),
	rt.Serve3(host.ReportLoad, (*Magistrate).reportLoad),
	rt.Serve0(GetLoads, func(m *Magistrate, _ context.Context) ([]HostLoad, error) { return m.Loads(), nil }),
	rt.Serve3(MoveResidents, (*Magistrate).moveResidents),
	rt.Serve1(Query, func(m *Magistrate, _ context.Context, q string) (*obs.Table, error) { return m.Plane().Query(q) }),
	rt.Serve2(AddSubMagistrate, (*Magistrate).addSub),
	rt.Serve1(RemoveSubMagistrate, (*Magistrate).removeSub),
	rt.Serve0(ListSubMagistrates, (*Magistrate).listSubs),
)

// Interface is the member-function set every Magistrate exports (§3.8).
var Interface = server.Interface()

// ActivationFilter lets a Magistrate implementation refuse to run
// particular objects or implementations — the DOE example of §2.1.3:
// resource providers "can build Magistrates that meet their own
// security and resource access requirements". A nil error admits the
// object.
type ActivationFilter func(object loid.LOID, impl string, onHost loid.LOID) error

type record struct {
	impl string
	// filed is the record's one persistent representation; its role
	// follows active. An inert record's is its OPR, set with two
	// exceptions: the record Instantiate inserts has none until its
	// object starts (or it leaves the table), see unborn; and a lost
	// object whose blank OPR the store refused (settleLostLocked) has
	// none, which reads as a blank OPR (readOPR). An active record's is
	// its newest crash-recovery checkpoint: what its incarnation started
	// from, then what its host ships (CheckpointBatch), or what a
	// planned exit drained, once it aborts. If the host dies, it is the
	// OPR the object restarts from.
	filed persist.PersistentAddress
	// active, host and addr say where the object runs. place and
	// unplace (below) are their only writers: they keep the Magistrate's
	// per-host resident counts in step with the table.
	active bool
	// busy marks a record claimed by a start round or a planned exit
	// (Deactivate, MigrateObject), which owns its fate while it is set:
	// Activate (of an inert record), Deactivate, Delete and MigrateObject
	// wait for it, and HostFailed leaves it to the claimant's settle.
	// claimLocked and releaseLocked are its only writers.
	busy bool
	// unborn marks a record Instantiate has inserted whose object has
	// not started yet: no binding has been returned to anyone, and
	// nothing is filed for it. Its first place clears it. m.mu held.
	unborn bool
	host   loid.LOID  // host running the object, if active
	addr   oa.Address // object address, if active
}

// Magistrate is the Magistrate implementation.
type Magistrate struct {
	self  loid.LOID
	store persist.Store

	mu     sync.Mutex
	cond   *sync.Cond // signals a released claim (releaseLocked); tied to mu
	hosts  []hostEntry
	subs   []subEntry // sub-magistrates (jurisdiction hierarchy, §2.2)
	rr     int        // placement cursor (fallback when scores tie)
	table  map[loid.Ident]*record
	filter ActivationFilter

	// loads holds the newest heartbeat load vector per host
	// (ReportLoad); lastPick is the placement hysteresis anchor.
	loads    map[loid.LOID]loadEntry
	lastPick loid.LOID

	// residents counts, per host, the table's records that are active
	// there — the placement score's resident term and Loads()'s view.
	// It is kept, not derived: place/unplace adjust it at the moment a
	// record changes hands, so a pick costs O(hosts), not O(table). It
	// is keyed by host identity, not by membership of m.hosts: a record
	// may outlive its host's place in the pool (a record mid-migration
	// across HostFailed, any record across RemoveHost/ForgetHosts) and
	// is still counted there until it is unplaced. Zero entries are
	// deleted.
	residents map[loid.LOID]int

	// migHook observes migration phase boundaries (test injection).
	migHook MigrateHook

	// adoptHook observes the moment an adoption batch ships (chaos
	// injection; see SetAdoptHook).
	adoptHook func(target loid.LOID)

	// plane is the cluster observability plane this Magistrate feeds
	// (heartbeat epochs, piggybacked telemetry, OPR generations,
	// flight-recorder events) and queries for LQL; nil when obs is off.
	plane *obs.Plane

	// BindingTTL bounds the validity of bindings the magistrate hands
	// out; zero means bindings never explicitly expire (§3.5).
	BindingTTL time.Duration

	// clk is the Magistrate's time base for binding TTLs, load
	// staleness, and phase timing histograms. Set once at construction
	// via SetClock, before the Magistrate serves traffic.
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
		table:     make(map[loid.Ident]*record),
		loads:     make(map[loid.LOID]loadEntry),
		residents: make(map[loid.LOID]int),
		clk:       clock.Wall,
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// LOID returns the Magistrate's name.
func (m *Magistrate) LOID() loid.LOID { return m.self }

// SetClock installs the Magistrate's time base (nil or clock.Wall =
// wall clock). Call before the Magistrate serves traffic.
func (m *Magistrate) SetClock(c clock.Clock) { m.clk = clock.Of(c) }

// now reads the Magistrate's clock.
func (m *Magistrate) now() time.Time { return m.clk.Now() }

// since is now().Sub(t) on the Magistrate's clock.
func (m *Magistrate) since(t time.Time) time.Duration { return m.clk.Since(t) }

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
	p.AddStoreSource(func() obs.StoreView {
		st := m.store.Stats()
		return obs.StoreView{
			Backend:     st.Backend,
			Records:     st.Records,
			Segments:    st.Segments,
			Quarantined: st.Quarantined,
		}
	})
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
func (m *Magistrate) Dispatch(inv *rt.Invocation) ([][]byte, error) { return server.Dispatch(m, inv) }

func (m *Magistrate) addHost(_ context.Context, l loid.LOID, addr oa.Address) (rt.Void, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := m.hostIndexLocked(l); i >= 0 {
		m.hosts[i].addr = addr
	} else {
		m.hosts = append(m.hosts, hostEntry{l: l, addr: addr})
	}
	m.seedHost(l, addr)
	return rt.Void{}, nil
}

func (m *Magistrate) removeHost(_ context.Context, l loid.LOID) (rt.Void, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropHostLocked(l)
	return rt.Void{}, nil
}

func (m *Magistrate) listHosts(context.Context) ([]loid.LOID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := make([]loid.LOID, 0, len(m.hosts))
	for _, h := range m.hosts {
		ls = append(ls, h.l)
	}
	return ls, nil
}

func (m *Magistrate) listObjects(context.Context) ([]loid.LOID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := make([]loid.LOID, 0, len(m.table))
	for id := range m.table {
		ls = append(ls, id.LOID())
	}
	return ls, nil
}

func (m *Magistrate) hasObject(ctx context.Context, l loid.LOID) (ObjectState, error) {
	m.mu.Lock()
	rec, known := m.table[l.Ident()]
	st := ObjectState{Known: known, Active: known && rec.active}
	m.mu.Unlock()
	if !known {
		// The hierarchy presents the union of its jurisdictions.
		if sub, ok := m.subFor(ctx, l); ok {
			return HasObject.Call(ctx, sub, l)
		}
	}
	return st, nil
}

// seedHost caches the host's binding so the magistrate can call it by
// LOID.
func (m *Magistrate) seedHost(l loid.LOID, addr oa.Address) {
	if m.obj != nil {
		m.obj.Caller().AddBinding(binding.Forever(l, addr))
	}
}

func (m *Magistrate) register(_ context.Context, l loid.LOID, implName string, state []byte) (rt.Void, error) {
	oprAddr, err := m.store.Put(persist.OPR{LOID: l, Impl: implName, State: state})
	if err != nil {
		return rt.Void{}, fmt.Errorf("magistrate %v: %w", m.self, err)
	}
	m.mu.Lock()
	var replaced persist.PersistentAddress
	if old, ok := m.table[l.Ident()]; ok {
		replaced = old.filed
		m.unplace(old) // it leaves the table
	}
	m.table[l.Ident()] = &record{impl: implName, filed: oprAddr}
	noteGeneration(m.plane, l, "register", loid.Nil, len(state))
	m.mu.Unlock()
	m.drop(replaced)
	return rt.Void{}, nil
}

// activate implements the overloaded Activate(LOID) and
// Activate(LOID, LOID) of §3.8. The host hint may be the nil LOID.
func (m *Magistrate) activate(ctx context.Context, l, hint loid.LOID) (binding.Binding, error) {
	b, known, err := m.activateLocal(ctx, l, hint)
	if !known {
		// Delegate down the hierarchy (§2.2).
		if sub, ok := m.subFor(ctx, l); ok {
			return Activate.Call(ctx, sub, l, hint)
		}
		return binding.Binding{}, fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	return b, err
}

// activateLocal activates an object this jurisdiction knows directly.
// known reports whether the object is in the local table at all (false
// lets the caller try hierarchy delegation). Both the Activate method
// and crash reactivation funnel through here.
func (m *Magistrate) activateLocal(ctx context.Context, l, hint loid.LOID) (b binding.Binding, known bool, err error) {
	m.mu.Lock()
	rec, ok := m.table[l.Ident()]
	for ok && !rec.active && rec.busy {
		// Another actor owns this inert record; wait for the outcome and
		// re-examine rather than double-activating.
		m.cond.Wait()
		rec, ok = m.table[l.Ident()]
	}
	if !ok {
		m.mu.Unlock()
		return binding.Binding{}, false, nil
	}
	if rec.active {
		b := m.bindingLocked(l, rec.addr)
		m.mu.Unlock()
		return b, true, nil
	}
	implName, oprAddr := rec.impl, rec.filed
	m.claimLocked(rec)
	m.mu.Unlock()
	opr, err := m.readOPR(l, implName, oprAddr)
	s := &starting{rec: rec, from: oprAddr, opr: opr, err: err}
	if err == nil {
		m.startSet(ctx, []*starting{s}, hint, hostEntry{}, roundHooks{})
	}
	m.settle([]*starting{s})
	if s.on.IsNil() {
		return binding.Binding{}, true, s.err
	}
	m.noteStarted(ctx, m.Plane(), s)
	return s.b, true, nil
}

// readOPR reads l's OPR at addr. A damaged one (ErrCorrupt; the store
// has quarantined it) reads as a blank OPR: availability beats amnesia,
// so the object comes back with empty state rather than staying
// unactivatable for good. So does no address at all: the record of a
// lost object whose blank OPR the store refused (settleLostLocked).
func (m *Magistrate) readOPR(l loid.LOID, impl string, addr persist.PersistentAddress) (persist.OPR, error) {
	if addr == "" {
		return persist.OPR{LOID: l, Impl: impl}, nil
	}
	opr, err := m.store.Get(addr)
	if errors.Is(err, persist.ErrCorrupt) {
		m.reg().Counter("mag/opr_corrupt").Inc()
		sp := m.tracer().RootAlways("serve", "opr.corrupt", "magistrate")
		sp.Event("opr.corrupt", fmt.Sprintf("%v: %v", l, err))
		sp.Finish(wire.ErrApp.String())
		return persist.OPR{LOID: l, Impl: impl}, nil
	}
	if err != nil {
		return persist.OPR{}, fmt.Errorf("magistrate %v: opr for %v: %w", m.self, l, err)
	}
	return opr, nil
}

// instantiate implements Instantiate: each object of the set enters the
// jurisdiction already running (§4.2). Its record is inserted claimed
// and started from the state in the invocation — borrowed bytes that go
// to the host inside this dispatch and are never retained — so a Create
// writes nothing to the store. Until a checkpoint or Deactivate files
// one, the object is "active, no checkpoint", whose loss settles to a
// blank OPR.
//
// The set's records are claimed, and each new object's host planned
// (planLocked), in one critical section. Each host is then offered its
// planned share by a start round pinned to it. A share of one, and each
// object of a share its host refused or left the pool under, goes
// through a lone start round from its planned host, so capacity limits
// and the activation filter act on it as on a lone Create; an object
// whose share got no answer does not, as it may yet start there. An
// object that starts nowhere leaves the table.
//
// An object already in the table under the same implementation is a
// redelivery: the caller retried after a late or lost reply. It waits
// on the first delivery's claim and answers that binding; if that start
// failed, the record has left the table and it starts afresh.
func (m *Magistrate) instantiate(ctx context.Context, set []Instance) (Instantiated, error) {
	// objs[i] starts set[i]; its rec stays nil when set[i] is already in
	// the table.
	objs := make([]*starting, len(set))
	var again []int
	m.mu.Lock()
	for i, in := range set {
		s := &starting{opr: persist.OPR{LOID: in.Object, Impl: in.Impl, State: in.State}}
		objs[i] = s
		if rec, ok := m.table[in.Object.Ident()]; ok {
			if rec.impl != in.Impl {
				s.err = fmt.Errorf("magistrate %v: object %v already exists", m.self, in.Object)
			} else {
				again = append(again, i)
			}
			continue
		}
		s.rec = &record{impl: in.Impl, unborn: true}
		m.table[in.Object.Ident()] = s.rec
		m.claimLocked(s.rec)
	}
	plan := m.planLocked(objs, set)
	m.mu.Unlock()

	// The planned shares, in the order their hosts were first picked. A
	// lone object is its own lone round.
	type share struct {
		h    loid.LOID
		take []*starting
	}
	var shares []share
	for i, s := range objs {
		if s.rec == nil || s.err != nil || len(objs) == 1 {
			continue
		}
		j := slices.IndexFunc(shares, func(sh share) bool { return sh.h.SameObject(plan[i].l) })
		if j < 0 {
			j = len(shares)
			shares = append(shares, share{h: plan[i].l})
		}
		shares[j].take = append(shares[j].take, s)
	}
	for _, sh := range shares {
		if len(sh.take) == 1 {
			continue
		}
		if _, unanswered := m.startSet(ctx, sh.take, sh.h, hostEntry{}, roundHooks{}); unanswered {
			continue // the share may yet start there
		}
		for _, s := range sh.take {
			if s.on.IsNil() {
				s.err = nil // refused, or its host left the pool
			}
		}
	}

	// What no share took starts alone, in the set's order: a share of
	// one, a refused share, and one whose host left the pool meanwhile.
	out := Instantiated{Bindings: make([]binding.Binding, len(set))}
	plane := m.Plane()
	for i, s := range objs {
		if s.rec == nil {
			continue
		}
		if s.on.IsNil() && s.err == nil {
			m.startSet(ctx, objs[i:i+1], set[i].HostHint, plan[i], roundHooks{})
		}
		if !s.on.IsNil() {
			m.noteStarted(ctx, plane, s)
			out.Bindings[i] = s.b
		}
	}
	m.settle(objs)

	for _, i := range again {
		b, known, err := m.activateLocal(ctx, set[i].Object, set[i].HostHint)
		if !known { // the first delivery failed: start it afresh
			r, _ := m.instantiate(ctx, set[i:i+1])
			b, err = r.Bindings[0], errors.New(r.Failure)
		}
		out.Bindings[i], objs[i].err = b, err
	}
	for i, s := range objs {
		if out.Bindings[i].Address.IsZero() {
			out.Failure = fmt.Sprintf("magistrate %v: %v did not start: %v", m.self, s.opr.LOID, s.err)
			break
		}
	}
	return out, nil
}

// planLocked plans the host of each new object of objs (one with a
// record) as a lone start at this point of the set would pick it: the
// placement pick for its hint in set (pickHostLocked, whose cursor and
// hysteresis anchor move as they would), or, where the activation
// filter refuses the object there, the first host of the pool that
// admits it. The set's earlier plans count as residents while it plans.
// An object no host admits gets the reason as its err and no plan.
// m.mu held.
func (m *Magistrate) planLocked(objs []*starting, set []Instance) []hostEntry {
	plan := make([]hostEntry, len(objs))
	for i, s := range objs {
		if s.rec == nil {
			continue
		}
		hint := set[i].HostHint
		h, err := m.pickHostLocked(hint)
		if err == nil {
			if err = m.admitLocked(h.l, s.opr); err != nil {
				if next, ok := m.nextHostLocked(hint, []loid.LOID{h.l}, objs[i:i+1]); ok {
					h, err = next, nil
				}
			}
		}
		if err != nil {
			s.err = err
			continue
		}
		plan[i] = h
		m.residents[h.l.ID()]++
	}
	for _, h := range plan {
		if !h.l.IsNil() {
			m.uncountLocked(h.l)
		}
	}
	return plan
}

// starting is one object of a claimed set, from its claim to its
// settlement (settle): its claimed record, the OPR it starts from and
// the address that OPR is filed at ("" for a new object). src is nil but
// for an object that leaves a host (a planned exit, drainAndFile): a
// moving object's claim outlasts its commit. A start round sets on and b
// once the object runs, or err once it gives up. Every claimed set is a
// []*starting.
type starting struct {
	rec  *record
	from persist.PersistentAddress
	opr  persist.OPR
	src  loid.LOID
	on   loid.LOID       // the host it started on; nil while it has not
	b    binding.Binding // its binding there
	err  error           // why it did not start
}

// noteStarted logs a started object's generations and flight-recorder
// event, as Activate and Instantiate report each object they start.
func (m *Magistrate) noteStarted(ctx context.Context, plane *obs.Plane, s *starting) {
	l := s.opr.LOID
	if s.from == "" {
		// A new object is registered only once it runs: a failed
		// Instantiate leaves no generation behind.
		noteGeneration(plane, l, "register", loid.Nil, len(s.opr.State))
	}
	noteGeneration(plane, l, "activate", s.on, len(s.opr.State))
	if plane != nil {
		plane.Record(obs.KindActivate, l.ID().String(), "started on "+s.on.String(), trace.FromContext(ctx).TraceID)
	}
}

// roundHooks observe a start round's host calls, outside m.mu: before
// as a call ships (SetAdoptHook's seam), after with the objects it
// carried and its answer, before the round commits any of them (a
// move's "shipped"). Either may be nil.
type roundHooks struct {
	before func(target loid.LOID)
	after  func(take []*starting, err error)
}

// round is what a start round leaves to do once m.mu is released: the
// representations its starts made stale, to drop, and the incarnations
// it did not commit, to reap, per host. discarded counts the calls
// answered by a host that had left the pool.
type round struct {
	stale     []persist.PersistentAddress
	orphans   map[loid.LOID][]loid.LOID
	discarded int
}

// orphan adds l, started on h but not committed, to the round's orphans.
func (rd *round) orphan(h, l loid.LOID) {
	if rd.orphans == nil {
		rd.orphans = make(map[loid.LOID][]loid.LOID)
	}
	rd.orphans[h] = append(rd.orphans[h], l)
}

// startSet is the one start round, the only code that starts objects:
// Activate, Instantiate (each planned share, pinned to its host, then
// each object alone), HostFailed recovery and MigrateObject all go
// through it (§3.1.1). It asks the hinted host only, or else first (the
// placement pick when first is the zero entry or has left the pool) and
// then each host of the pool not yet asked that the activation filter
// admits for part of what is left, in pool order. Each host is sent the
// part of the set the filter admits there, in one call (offerLocked).
//
// A host that answers with an error started nothing (StartObjects is
// all or nothing) and is passed over, as is one that has left the pool,
// before the call or during it. A call that gets no answer from a host
// still in the pool ends the round: the set may yet start there, and
// offering it to another host could leave two incarnations. What is
// left gets the round's last error and goes back to the caller still
// claimed. It returns the round's discarded calls, and whether it ended
// on a call that got no answer.
func (m *Magistrate) startSet(ctx context.Context, set []*starting, hint loid.LOID, first hostEntry, hooks roundHooks) (discarded int, unanswered bool) {
	pending := slices.Clone(set)
	var rd round
	m.mu.Lock()
	h, err := first, error(nil)
	if h.l.IsNil() || !m.hostKnownLocked(h.l) { // none, or it left the pool since it was planned
		h, err = m.pickHostLocked(hint)
	}
	for asked, ok := []loid.LOID(nil), err == nil; ok && len(pending) > 0; h, ok = m.nextHostLocked(hint, asked, pending) {
		asked = append(asked, h.l)
		// The part of the set the filter admits on h moves to the front.
		n := 0
		for i, s := range pending {
			if ferr := m.admitLocked(h.l, s.opr); ferr != nil {
				err = ferr
				continue
			}
			pending[n], pending[i] = s, pending[n]
			n++
		}
		if n == 0 {
			continue
		}
		if cerr := m.offerLocked(ctx, &rd, h, pending[:n], hooks); cerr != nil {
			err = fmt.Errorf("magistrate %v: start on %v: %w", m.self, h.l, cerr)
			if unanswered = !refused(cerr) && m.hostKnownLocked(h.l); unanswered {
				break
			}
			continue
		}
		pending = pending[n:]
	}
	for _, s := range pending {
		s.err = err
	}
	m.endRoundLocked(&rd)
	return rd.discarded, unanswered
}

// offerLocked asks h to start take in one StartObjects call, with m.mu
// released around it, and returns the call's error, after which h has
// started none of them (the call is all or nothing). If h left the pool
// during the call, what it started is orphaned and the call fails as if
// refused. Otherwise what h took is committed (commitStartedLocked) at
// the host's address, each record sharing the pool entry's copy, and,
// but for a moving object, its claim released in one critical section,
// so no other actor (HostFailed above all) sees it placed yet still
// claimed; an object whose record left the table meanwhile is an orphan
// too. m.mu held.
func (m *Magistrate) offerLocked(ctx context.Context, rd *round, h hostEntry, take []*starting, hooks roundHooks) error {
	m.mu.Unlock()
	if hooks.before != nil {
		hooks.before(h.l) // chaos seam: the target may die mid-ship here
	}
	oprs := make([]persist.OPR, len(take))
	for i, s := range take {
		oprs[i] = s.opr
	}
	_, err := host.StartObjects.Call(ctx, m.obj.Caller().To(h.l), oprs)
	if hooks.after != nil {
		hooks.after(take, err)
	}
	m.mu.Lock()
	if err == nil && !m.hostKnownLocked(h.l) {
		rd.discarded++
		for _, s := range take {
			rd.orphan(h.l, s.opr.LOID)
		}
		err = fmt.Errorf("magistrate %v: host %v left the pool during the start", m.self, h.l)
	}
	if err != nil {
		return err
	}
	for _, s := range take {
		l := s.opr.LOID
		st, ok := m.commitStartedLocked(l, s.rec, h.l, h.addr, s.from)
		if !ok {
			rd.orphan(h.l, l)
			s.err = fmt.Errorf("magistrate %v: object %v left the table while it started", m.self, l)
			continue
		}
		if s.src.IsNil() {
			m.releaseLocked(s.rec)
		}
		rd.stale = append(rd.stale, st)
		s.on, s.b = h.l, m.bindingLocked(l, h.addr)
	}
	return nil
}

// endRoundLocked ends a start round: with m.mu released, the round's
// stale representations are dropped and its orphans reaped, in one
// EvictObjects per host. m.mu held on entry, released on return.
func (m *Magistrate) endRoundLocked(rd *round) {
	m.mu.Unlock()
	m.drop(rd.stale...)
	for h, ls := range rd.orphans {
		// Reaping is cleanup, not the caller's work: no deadline.
		_, _ = host.EvictObjects.Call(context.Background(), m.obj.Caller().To(h), ls, oa.Address{})
	}
}

// refused reports whether err is a host's answer, after which it has
// started nothing, rather than a call that got none (ErrUnavailable, a
// deadline, a transport error), after which it still may.
func refused(err error) bool {
	var re *rt.ResultError
	return errors.As(err, &re) && re.Code != wire.ErrUnavailable && re.Code != wire.ErrDeadlineExceeded
}

// admitLocked applies the activation filter to o's object on h: nil
// admits it. m.mu held.
func (m *Magistrate) admitLocked(h loid.LOID, o persist.OPR) error {
	if m.filter == nil {
		return nil
	}
	if err := m.filter(o.LOID, o.Impl, h); err != nil {
		return fmt.Errorf("magistrate %v refuses to activate %v: %w", m.self, o.LOID, err)
	}
	return nil
}

// nextHostLocked returns the first host of the pool not in asked that
// the activation filter admits for at least one of left: the next host
// of a start round, which has none when it is pinned to a hinted host.
// m.mu held.
func (m *Magistrate) nextHostLocked(hint loid.LOID, asked []loid.LOID, left []*starting) (hostEntry, bool) {
	if !hint.IsNil() {
		return hostEntry{}, false
	}
	for _, h := range m.hosts {
		if slices.ContainsFunc(asked, h.l.SameObject) {
			continue
		}
		for _, s := range left {
			if m.admitLocked(h.l, s.opr) == nil {
				return h, true
			}
		}
	}
	return hostEntry{}, false
}

// commitStartedLocked records that rec's object, started from the OPR
// at from, now runs on host at addr. from stays on file as the new
// incarnation's checkpoint, so a crash before the host's next checkpoint
// round brings the object back as it started, not blank. It returns the
// older representation, if any, now stale, for the caller to drop once m.mu is
// released (a store delete may fsync). ok is false when rec left the
// table while the object started (deleted, or replaced by Register or
// RestoreState): the new incarnation is an orphan the caller must reap,
// and rec's representations are left to whoever removed it. m.mu held.
func (m *Magistrate) commitStartedLocked(l loid.LOID, rec *record, host loid.LOID, addr oa.Address, from persist.PersistentAddress) (stale persist.PersistentAddress, ok bool) {
	if m.table[l.Ident()] != rec {
		return "", false
	}
	m.place(rec, host, addr)
	if rec.filed != from {
		stale = rec.filed
	}
	rec.filed = from
	return stale, true
}

// drop deletes persistent representations nothing refers to any more,
// skipping empty addresses, in one store call (one group commit). Call
// it without m.mu: a delete may fsync.
func (m *Magistrate) drop(addrs ...persist.PersistentAddress) {
	addrs = slices.DeleteFunc(addrs, func(a persist.PersistentAddress) bool { return a == "" })
	_ = m.store.Delete(addrs...) // a failed delete leaves only garbage
}

// claimLocked marks rec busy for its caller — an activation, a bulk
// adoption, a deactivation or a migration — which must later release
// it. claimLocked and releaseLocked are the only writers of rec.busy.
// m.mu held.
func (m *Magistrate) claimLocked(rec *record) { rec.busy = true }

// releaseLocked ends the claim on rec and wakes every actor waiting for
// a record to settle. m.mu held.
func (m *Magistrate) releaseLocked(rec *record) {
	rec.busy = false
	m.cond.Broadcast()
}

// settle ends the claims its caller holds on set, in one critical
// section, once the set's start round or planned exit is over. A
// started object that is not moving is skipped: the round's commit
// released it. An unborn object that did not start leaves the table:
// with nothing filed, no actor may ever see it inert. An object still
// placed on a host that has left the jurisdiction is settled lost, as
// HostFailed, which skips claimed records, would have: settle is the
// only code that settles a claimed record. The lost objects are
// recovered in one recoverLost call and returned.
func (m *Magistrate) settle(set []*starting) (lost []loid.LOID) {
	m.mu.Lock()
	for _, s := range set {
		if s.rec == nil || (!s.on.IsNil() && s.src.IsNil()) {
			continue
		}
		if id := s.opr.LOID.Ident(); m.table[id] == s.rec {
			if s.rec.unborn {
				delete(m.table, id)
			} else if s.rec.active && !m.hostKnownLocked(s.rec.host) {
				m.settleLostLocked(s.opr.LOID.ID(), s.rec)
				lost = append(lost, s.opr.LOID.ID())
			}
		}
		m.releaseLocked(s.rec)
	}
	m.mu.Unlock()
	m.recoverLost(lost)
	return lost
}

// settleLostLocked turns rec, active on a host that is gone, into an
// inert record the Magistrate can activate again (§3.1.1). The running
// state died with the host, so the newest checkpoint, filed as it is,
// becomes the authoritative OPR; without one (an Instantiated object not
// yet checkpointed) a blank OPR is minted and the object restarts from
// its initial state. It is the only code that settles a lost incarnation, for
// HostFailed and for settle, of a claim whose host died under it. m.mu
// held.
func (m *Magistrate) settleLostLocked(id loid.LOID, rec *record) {
	lostOn := rec.host
	m.unplace(rec)
	if rec.filed == "" {
		rec.filed = m.mintBlank(id, rec.impl)
	} else {
		noteGeneration(m.plane, id, "promote", lostOn, 0)
	}
}

// mintBlank persists an empty-state OPR for l, so a record whose state
// is gone stays activatable. It returns "" when the store refuses, an
// address readOPR reads as the same blank OPR.
func (m *Magistrate) mintBlank(l loid.LOID, impl string) persist.PersistentAddress {
	a, err := m.store.Put(persist.OPR{LOID: l, Impl: impl})
	if err != nil {
		return ""
	}
	return a
}

// recoverLost brings back objects settleLostLocked left inert, whatever
// their number. It is the only way a lost object comes back: one
// background loop whose every round claims the lost records that are
// still inert (claimLost) and starts them from their OPRs on a
// surviving host through the start round (adoptRound, startSet).
// Records another actor holds are left to a later round, and what no
// host takes stays inert for the next Activate. Running in the
// background, the loop never makes a caller still holding a claim wait
// on itself; with nothing lost, it does not run.
func (m *Magistrate) recoverLost(ls []loid.LOID) {
	if len(ls) == 0 {
		return
	}
	go func() {
		for len(ls) > 0 {
			var batch []*starting
			batch, ls = m.claimLost(ls)
			m.adoptRound(batch)
		}
	}()
}

// HostFailed records the crash of a host (invoked by whatever failure
// detector notices it — in the simulator, the chaos controller). Every
// object that was active on h is settled inert (settleLostLocked): a
// crash loses the host's volatile memory, so each comes back from its
// last checkpoint, or else from its initial state. A record that is
// busy is left to its claimant: a start round, migration or
// deactivation settles it as it ends the claim (settle), so settling it
// here would race it into a second incarnation.
//
// The affected objects are then recovered EAGERLY in the background
// (recoverLost: "the Magistrate can always activate the object using
// the information in the OPR", §3.1.1), normally all on one survivor
// in one StartObjects call, and the class objects are told the new
// addresses; callers racing ahead of that heal through the ordinary
// stale-binding refresh path either way. The affected LOIDs are
// returned so callers can log or wait on them.
func (m *Magistrate) HostFailed(h loid.LOID) []loid.LOID {
	m.mu.Lock()
	m.dropHostLocked(h)
	var affected []loid.LOID
	for id, rec := range m.table {
		if rec.active && rec.host.SameObject(h) && !rec.busy {
			l := id.LOID()
			m.settleLostLocked(l, rec)
			affected = append(affected, l)
		}
	}
	survivors := len(m.hosts) > 0
	plane := m.plane
	m.mu.Unlock()
	if plane != nil {
		plane.Record(obs.KindFailover, h.String(),
			fmt.Sprintf("host failed, %d objects affected (survivors=%v)", len(affected), survivors), 0)
	}
	m.recoverLost(affected)
	return affected
}

// notifyClasses tells the class objects of a round's started objects
// their new bindings, one NotifyAddress per class in the order the
// classes first appear in set, so the instance tables and any pushed
// bindings stay coherent. A class object is its own class and is not
// told. Best effort: a class that cannot be reached (or does not know
// an instance) is healed later by its own refresh machinery.
func (m *Magistrate) notifyClasses(ctx context.Context, set []*starting) {
	var classes []loid.LOID
	news := map[loid.Ident][]binding.Binding{}
	for _, s := range set {
		if cl := s.opr.LOID.ClassLOID(); !s.on.IsNil() && !cl.IsNil() && !cl.SameObject(s.opr.LOID) {
			if news[cl.Ident()] == nil {
				classes = append(classes, cl)
			}
			news[cl.Ident()] = append(news[cl.Ident()], s.b)
		}
	}
	for _, cl := range classes {
		if _, err := NotifyAddress.Call(ctx, m.obj.Caller().To(cl), news[cl.Ident()]); err != nil {
			m.reg().Counter("mag/notify_class_failed").Inc()
		}
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
	m.hosts, m.subs = nil, nil
}

// HostRecovered re-admits a restarted host to the jurisdiction (the
// simulator's restart path; production hosts re-register via AddHost).
func (m *Magistrate) HostRecovered(h loid.LOID, addr oa.Address) {
	m.addHost(context.Background(), h, addr)
}

func (m *Magistrate) bindingLocked(l loid.LOID, addr oa.Address) binding.Binding {
	if m.BindingTTL > 0 {
		return binding.Until(l, addr, m.now().Add(m.BindingTTL))
	}
	return binding.Forever(l, addr)
}

// waitSettledLocked waits (on m.cond, m.mu held) until l's record is
// not busy, then returns it. The record is re-looked-up on every wake:
// it may be deleted while we wait.
func (m *Magistrate) waitSettledLocked(id loid.Ident) (*record, bool) {
	for {
		rec, ok := m.table[id]
		if !ok || !rec.busy {
			return rec, ok
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
		if i := m.hostIndexLocked(hint); i >= 0 {
			return m.hosts[i], nil
		}
		return hostEntry{}, fmt.Errorf("magistrate %v: hinted host %v not in jurisdiction", m.self, hint)
	}
	if len(m.hosts) == 1 {
		return m.hosts[0], nil
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
	rec.active, rec.host, rec.addr, rec.unborn = true, host, addr, false
	m.residents[host.ID()]++
}

// unplace is a no-op on an inert record. The host need not be in
// m.hosts any more: counts are keyed by host identity, not by pool
// membership.
func (m *Magistrate) unplace(rec *record) {
	if !rec.active {
		return
	}
	m.uncountLocked(rec.host)
	rec.active, rec.host, rec.addr = false, loid.Nil, oa.Address{}
}

// uncountLocked takes one off h's resident count, deleting a zero
// entry. m.mu held.
func (m *Magistrate) uncountLocked(h loid.LOID) {
	id := h.ID()
	if n := m.residents[id]; n > 1 {
		m.residents[id] = n - 1
	} else {
		delete(m.residents, id)
	}
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

// deactivateByLOID implements Deactivate (§3.8): drain the object and
// file its state (drainAndFile), evict the drained incarnation, and the
// filed state is the OPR. On a failure the object reopens where it ran
// (abortToSource), the filed state, if any, its checkpoint.
func (m *Magistrate) deactivateByLOID(ctx context.Context, l loid.LOID) error {
	m.mu.Lock()
	rec, ok := m.waitSettledLocked(l.Ident())
	if !ok {
		m.mu.Unlock()
		if sub, ok := m.subFor(ctx, l); ok {
			_, err := Deactivate.Call(ctx, sub, l)
			return err
		}
		return fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	if !rec.active {
		m.mu.Unlock()
		return nil // already inert
	}
	src := rec.host
	m.claimLocked(rec)
	m.mu.Unlock()
	set := []*starting{{rec: rec, opr: persist.OPR{LOID: l}, src: src}}
	defer m.settle(set)

	if m.drainAndFile(ctx, set, nil) == 0 {
		m.abortToSource(set)
		return set[0].err
	}
	saved, opr := set[0].opr, set[0].from
	if _, err := host.EvictObjects.Call(ctx, m.obj.Caller().To(src), []loid.LOID{l}, oa.Address{}); err != nil {
		m.abortToSource(set)
		return fmt.Errorf("magistrate %v: stop %v: %w", m.self, l, err)
	}
	m.mu.Lock()
	if m.table[l.Ident()] != rec { // replaced by Register or RestoreState
		m.mu.Unlock()
		m.drop(opr)
		return fmt.Errorf("magistrate %v: object %v left the table during deactivation", m.self, l)
	}
	m.unplace(rec)
	ckpt := rec.filed
	rec.filed, rec.impl = opr, saved.Impl
	noteGeneration(m.plane, l, "deactivate", src, len(saved.State))
	m.mu.Unlock()
	m.drop(ckpt) // the drained state supersedes any checkpoint
	return nil
}

func (m *Magistrate) deleteByLOID(ctx context.Context, l loid.LOID) error {
	m.mu.Lock()
	rec, ok := m.waitSettledLocked(l.Ident())
	if !ok {
		m.mu.Unlock()
		if sub, ok := m.subFor(ctx, l); ok {
			_, err := Delete.Call(ctx, sub, l)
			return err
		}
		return fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	active, hostL, filed := rec.active, rec.host, rec.filed
	m.unplace(rec) // it leaves the table
	delete(m.table, l.Ident())
	m.mu.Unlock()

	if active {
		if _, err := host.EvictObjects.Call(ctx, m.obj.Caller().To(hostL), []loid.LOID{l}, oa.Address{}); err != nil {
			return fmt.Errorf("magistrate %v: kill %v: %w", m.self, l, err)
		}
	}
	m.drop(filed)
	return nil
}

// copyTo implements Copy (and, with move set, Move = Copy then Delete,
// §3.8).
func (m *Magistrate) copyTo(ctx context.Context, l, to loid.LOID, move bool) error {
	// Copy "causes the Magistrate to deactivate the object, creating an
	// Object Persistent Representation" (§3.8).
	if err := m.deactivateByLOID(ctx, l); err != nil {
		return err
	}
	m.mu.Lock()
	rec, ok := m.table[l.Ident()]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	oprAddr := rec.filed
	m.mu.Unlock()
	opr, err := m.store.Get(oprAddr)
	if err != nil {
		return fmt.Errorf("magistrate %v: %w", m.self, err)
	}
	if _, err := ReceiveOPR.Call(ctx, m.obj.Caller().To(to), l, opr.Impl, opr.State); err != nil {
		return fmt.Errorf("magistrate %v: send OPR to %v: %w", m.self, to, err)
	}
	if move {
		return m.deleteByLOID(ctx, l)
	}
	return nil
}

func (m *Magistrate) getBinding(ctx context.Context, l loid.LOID) (binding.Binding, error) {
	m.mu.Lock()
	rec, ok := m.table[l.Ident()]
	if !ok {
		m.mu.Unlock()
		if sub, ok := m.subFor(ctx, l); ok {
			return GetBinding.Call(ctx, sub, l)
		}
		return binding.Binding{}, fmt.Errorf("magistrate %v: unknown object %v", m.self, l)
	}
	defer m.mu.Unlock()
	if !rec.active {
		return binding.Binding{}, fmt.Errorf("magistrate %v: object %v is inert (use Activate)", m.self, l)
	}
	return m.bindingLocked(l, rec.addr), nil
}

// SaveState implements rt.Impl: the magistrate persists its table and
// host list (OPRs already live in the store).
func (m *Magistrate) SaveState() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var w wire.Writer
	w.Count64(len(m.hosts))
	for _, h := range m.hosts {
		w.LOID(h.l)
		w.Address(h.addr)
	}
	w.Count64(len(m.subs))
	for _, s := range m.subs {
		w.LOID(s.l)
		w.Address(s.addr)
	}
	// Every record is saved but an unborn one, whose Instantiate has
	// returned no binding yet (restored, it would mint a blank OPR for
	// an object whose Create may still fail). An active object's running
	// state dies with the process, so it is recorded as inert-at-restore,
	// pointing at its newest checkpoint when one exists (empty address =
	// blank restart). Inert records keep their authoritative OPR address.
	n := len(m.table)
	for _, rec := range m.table {
		if rec.unborn {
			n--
		}
	}
	w.Count64(n)
	for id, rec := range m.table {
		if rec.unborn {
			continue
		}
		w.LOID(id.LOID())
		w.Str64(rec.impl)
		w.Str64(string(rec.filed))
	}
	return w.Bytes(), nil
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
	r := wire.NewReader(state)
	hosts := make([]hostEntry, r.Count64(loid.EncodedSize+4))
	for i := range hosts {
		hosts[i] = hostEntry{l: r.LOID(), addr: r.Address()}
	}
	subs := make([]subEntry, r.Count64(loid.EncodedSize+4))
	for i := range subs {
		subs[i] = subEntry{l: r.LOID(), addr: r.Address()}
	}
	// Each record is a LOID and two 8-byte lengths.
	n := r.Count64(loid.EncodedSize + 16)
	table := make(map[loid.Ident]*record, n)
	for range n {
		id := r.LOID().Ident()
		table[id] = &record{impl: r.Str64(wire.NoCap), filed: persist.PersistentAddress(r.Str64(wire.NoCap))}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("magistrate: state: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hosts, m.subs = hosts, subs
	// The old table's records leave with it; every restored record is
	// inert, so the resident counts restart from zero.
	for _, rec := range m.table {
		m.unplace(rec)
	}
	m.table = table
	for id, rec := range table {
		if rec.filed == "" {
			// Active with no checkpoint at save time: the state is gone.
			rec.filed = m.mintBlank(id.LOID(), rec.impl)
		}
	}
	return nil
}
