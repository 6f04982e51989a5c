// Package host implements Legion Host Objects (§2.3, §3.9): the
// representative of a machine to Legion, "ultimately responsible for
// deciding which objects can run on the host it represents". A Host
// Object starts and stops objects on its node, enforces its capacity
// and access policy, reaps stopped objects, and reports load through
// GetState; objects arrive and leave in sets. Host Objects are started
// from outside Legion (§4.2.1) and register themselves with the class
// LegionHost.
package host

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

// The Host Object's remote methods (§3.9 names Activate, Deactivate,
// SetCPUload, SetMemoryUsage and GetState; StartObjects and StopObject
// are their object-granular forms; StartObjects and a planned exit's
// DrainObjects, EvictObjects and ReopenObjects each take a set).
var (
	StartObjects = rt.M1("StartObjects", oprSetParam("set"), rt.Uint64Param("started"))
	StopObject   = rt.M1("StopObject", rt.LOIDParam("object"), savedCodec)
	GetState     = rt.M0("GetState", rt.Struct(
		rt.Field(rt.Uint64Param("objects"), func(s *State) *uint64 { return &s.Objects }),
		rt.Field(rt.Uint64Param("cpuLimit"), func(s *State) *uint64 { return &s.CPULimit }),
		rt.Field(rt.Uint64Param("memLimit"), func(s *State) *uint64 { return &s.MemLimit })))
	SetCPULoad     = rt.M1("SetCPULoad", rt.Uint64Param("limit"), rt.None)
	SetMemoryUsage = rt.M1("SetMemoryUsage", rt.Uint64Param("limit"), rt.None)
	GetLoad        = rt.M0("GetLoad", rt.Param("load", idl.TBytes, Load.Marshal, UnmarshalLoad))
	DrainObjects   = rt.M1("DrainObjects", rt.LOIDListParam("objects"), oprSetParam("drained"))
	EvictObjects   = rt.M2("EvictObjects", rt.LOIDListParam("objects"), rt.AddressParam("newAddr").Optional(), rt.None)
	ReopenObjects  = rt.M1("ReopenObjects", rt.LOIDListParam("objects"), rt.None)
)

// A Host Object's reports to its Magistrate are declared here, with
// their sender, because package magistrate imports this one; the
// Magistrate serves them.
var (
	ReportLoad = rt.M3("ReportLoad", rt.LOIDParam("host"), rt.Param("load", idl.TBytes, Load.Marshal, UnmarshalLoad),
		rt.BytesParam("telemetry").Optional(), rt.None)
	CheckpointBatch = rt.M2("CheckpointBatch", rt.LOIDParam("host"), oprSetParam("batch"), rt.Uint64Param("saved"))
)

// oprSetParam carries a set of OPRs in one bytes slot, framed by
// persist.EncodeOPRBatch. The decoded states alias the invocation's
// frame: a handler borrows them for the call.
func oprSetParam(name string) rt.Codec[[]persist.OPR] {
	return rt.Param(name, idl.TBytes, persist.EncodeOPRBatch, persist.DecodeOPRBatch)
}

// State is a host's capacity report (GetState).
type State struct {
	Objects  uint64
	CPULimit uint64
	MemLimit uint64
}

// savedCodec carries StopObject's answer: the state and implementation.
var savedCodec = rt.Struct(
	rt.Field(rt.BytesParam("state"), func(o *persist.OPR) *[]byte { return &o.State }),
	rt.Field(rt.StringParam("impl"), func(o *persist.OPR) *string { return &o.Impl }))

var server = rt.NewServer("LegionHost",
	rt.Serve1(StartObjects, (*Host).startObjects),
	rt.Serve1(StopObject, (*Host).stopObject),
	rt.Serve0(GetState, func(h *Host, _ context.Context) (State, error) {
		h.mu.Lock()
		defer h.mu.Unlock()
		return State{uint64(len(h.running)), h.cpuLimit, h.memLimit}, nil
	}),
	rt.Serve1(SetCPULoad, func(h *Host, _ context.Context, v uint64) (rt.Void, error) {
		h.mu.Lock()
		h.cpuLimit = v
		h.mu.Unlock()
		return rt.Void{}, nil
	}),
	rt.Serve1(SetMemoryUsage, func(h *Host, _ context.Context, v uint64) (rt.Void, error) {
		h.mu.Lock()
		h.memLimit = v
		h.mu.Unlock()
		return rt.Void{}, nil
	}),
	rt.Serve0(GetLoad, func(h *Host, _ context.Context) (Load, error) { return h.LoadNow(), nil }),
	rt.Serve1(DrainObjects, (*Host).drainObjects),
	rt.Serve2(EvictObjects, (*Host).evictObjects),
	rt.Serve1(ReopenObjects, func(h *Host, _ context.Context, ls []loid.LOID) (rt.Void, error) {
		for _, l := range ls {
			h.node.Unpark(l)
		}
		return rt.Void{}, nil
	}),
)

// Interface is the member-function set every Host Object exports.
var Interface = server.Interface()

// ServiceConcurrency is how many dispatches may run at once on an
// object whose implementation is registered concurrency-safe.
const ServiceConcurrency = 16

// ResolverFactory builds the Resolver a newly started object's
// communication layer uses; the host wires every object it starts to
// the site's Binding Agent this way.
type ResolverFactory func(self loid.LOID) rt.Resolver

// Host is the Host Object implementation. It runs on — and starts
// objects onto — one rt.Node, the stand-in for the machine.
type Host struct {
	self   loid.LOID
	node   *rt.Node
	impls  *implreg.Registry
	newRes ResolverFactory

	mu      sync.Mutex
	running map[loid.Ident]*resident
	// arriving counts the objects admitted (reserve) but not yet
	// resident: capacity is checked against running plus arriving, so
	// starts that race all see each other's admissions.
	arriving uint64
	cpuLimit uint64 // max concurrently active objects; 0 = unlimited
	memLimit uint64 // advisory memory budget, reported via GetState
	obj      *rt.Object
	ckpt     *checkpointer  // periodic durability loop; nil when off
	loadRep  *loop          // heartbeat load reports; nil when off
	telem    *obs.Telemetry // piggybacked telemetry; nil when off

	meter loadMeter // dispatch-rate sampling for the load vector
}

// loop runs a round on each tick of its own ticker, on its own
// goroutine, until halted: the checkpointer and the load reporter.
type loop struct{ stop, done chan struct{} }

// startLoop starts a loop running round every interval (def when
// every <= 0). The ticker starts before startLoop returns, so time
// advanced on a virtual clock right after a Start counts towards the
// first tick.
func (h *Host) startLoop(every, def time.Duration, round func()) *loop {
	if every <= 0 {
		every = def
	}
	l := &loop{stop: make(chan struct{}), done: make(chan struct{})}
	tick := h.node.Clock().NewTicker(every)
	go func() {
		defer close(l.done)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C():
				round()
			}
		}
	}()
	return l
}

// halt stops the loop and waits for an in-flight round. A nil loop is
// one that never ran.
func (l *loop) halt() {
	if l == nil {
		return
	}
	close(l.stop)
	<-l.done
}

// resident is everything the host keeps about one object it runs. The
// record is made when the object arrives (StartObjects) and dropped
// when it leaves (stop, kill, crash, migrate-out), so per-object state
// cannot outlive the incarnation it describes: an object that comes
// back gets a fresh record.
type resident struct {
	impl string
	// ckpt is the mutation clock at the last accepted checkpoint, plus
	// one; zero means this incarnation was never checkpointed.
	ckpt atomic.Uint64
}

// savedClock returns the mutation clock of the last accepted
// checkpoint and whether there was one.
func (r *resident) savedClock() (uint64, bool) {
	if c := r.ckpt.Load(); c != 0 {
		return c - 1, true
	}
	return 0, false
}

// New builds a Host Object for node. impls is the implementation
// registry visible on this machine; newRes may be nil (started objects
// then have no resolver and can only use explicit addresses).
func New(self loid.LOID, node *rt.Node, impls *implreg.Registry, newRes ResolverFactory) *Host {
	return &Host{
		self:    self,
		node:    node,
		impls:   impls,
		newRes:  newRes,
		running: make(map[loid.Ident]*resident),
	}
}

// SetTelemetry configures the telemetry sender this host piggybacks on
// its load-report heartbeat (nil disables). Only hosts whose metrics
// registry is distinct from the observability plane's should send —
// in-process hosts share the plane's registry and are read directly.
func (h *Host) SetTelemetry(t *obs.Telemetry) {
	h.mu.Lock()
	h.telem = t
	h.mu.Unlock()
}

func (h *Host) telemetry() *obs.Telemetry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.telem
}

// LOID returns the Host Object's name.
func (h *Host) LOID() loid.LOID { return h.self }

// Node returns the node this host manages.
func (h *Host) Node() *rt.Node { return h.node }

// Address returns the host's node address — the Object Address of
// every object it runs.
func (h *Host) Address() oa.Address { return h.node.Address() }

// Interface implements rt.Impl.
func (h *Host) Interface() *idl.Interface { return Interface }

// Bind implements rt.Binder.
func (h *Host) Bind(o *rt.Object) { h.obj = o }

// Dispatch implements rt.Impl.
func (h *Host) Dispatch(inv *rt.Invocation) ([][]byte, error) { return server.Dispatch(h, inv) }

// startObjects is the one way objects arrive here: a Magistrate ships a
// set of OPRs (a lone activation's set of one, an Instantiate share, a
// recovery's lost set, a migrating object) and the host starts all of
// them in one call. An object already running here counts as started
// and takes no capacity, so a start retried after its reply was lost is
// answered even by a full host. The rest are admitted in one step
// (reserve) and started all or nothing: if one fails to start, the ones
// this call started are killed again and the error is returned, and the
// Magistrate offers the set elsewhere.
func (h *Host) startObjects(_ context.Context, set []persist.OPR) (uint64, error) {
	n := len(set)
	arrivals := slices.DeleteFunc(set, func(o persist.OPR) bool {
		_, ok := h.node.Lookup(o.LOID)
		return ok
	})
	if len(arrivals) == 0 {
		return uint64(n), nil
	}
	if err := h.reserve(len(arrivals)); err != nil {
		return 0, err
	}
	for i, o := range arrivals {
		if err := h.spawnResident(o.LOID, o.Impl, o.State); err != nil {
			h.unreserve(len(arrivals) - i)
			for _, s := range arrivals[:i] {
				h.evict(s.LOID, oa.Element{})
			}
			return 0, fmt.Errorf("host %v: start %v: %w", h.self, o.LOID, err)
		}
	}
	return uint64(n), nil
}

// reserve admits n arriving objects against the capacity limit in one
// critical section, or refuses them all. Each admitted object either
// becomes a resident (spawnResident takes its reservation) or is given
// back (unreserve).
func (h *Host) reserve(n int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cpuLimit > 0 && uint64(len(h.running))+h.arriving+uint64(n) > h.cpuLimit {
		return fmt.Errorf("host %v at capacity (%d objects): cannot start %d more", h.self, h.cpuLimit, n)
	}
	h.arriving += uint64(n)
	return nil
}

func (h *Host) unreserve(n int) {
	h.mu.Lock()
	h.arriving -= uint64(n)
	h.mu.Unlock()
}

// spawnResident builds an incarnation of implName for l, restores state
// into it (empty state = fresh object), starts it on the host's node and
// records it as a resident, in the critical section that takes one of
// the reservations its caller holds: the one way an object arrives
// here, for startObjects.
func (h *Host) spawnResident(l loid.LOID, implName string, state []byte) error {
	impl, err := h.impls.New(implName)
	if err != nil {
		return err
	}
	if len(state) > 0 {
		if err := impl.RestoreState(state); err != nil {
			return fmt.Errorf("host %v: restore %v: %w", h.self, l, err)
		}
	}
	// Label by canonical ID (key fingerprint stripped) so per-object
	// metrics join with the Magistrate's placement table, which indexes
	// by ID as well.
	opts := []rt.SpawnOption{rt.WithLabel("obj/" + l.ID().String())}
	if h.newRes != nil {
		// The object builds its Caller, and so its resolver, on its
		// first call-out; one that only answers calls never does.
		opts = append(opts, rt.WithResolver(h.newRes))
	}
	if h.impls.IsConcurrent(implName) {
		opts = append(opts, rt.WithConcurrency(ServiceConcurrency))
	}
	if _, err := h.node.Spawn(l, impl, opts...); err != nil {
		return err
	}
	h.mu.Lock()
	h.running[l.Ident()] = &resident{impl: implName}
	h.arriving--
	h.mu.Unlock()
	return nil
}

// evict kills l's incarnation, forgets it as a resident and settles its
// migration gate. Given a destination (migrate-out), the gate turns into
// a forwarding tombstone aimed there before the kill, so no arrival
// meets the dead incarnation; otherwise the calls parked there bounce
// back to their callers' retry loops. It is the one way an object
// leaves the host other than a crash (stop, an undone start,
// EvictObjects).
func (h *Host) evict(l loid.LOID, to oa.Element) {
	if to != (oa.Element{}) {
		h.node.ForwardParked(l, to)
	}
	h.node.Kill(l)
	h.mu.Lock()
	delete(h.running, l.Ident())
	h.mu.Unlock()
	h.node.Unpark(l) // a no-op on a tombstone
}

// stopObject drains the object as a migration does (drain), removes it
// from the node and returns (state, implName): the state holds every
// call the object answered, and the calls parked during the drain
// bounce to their callers, which refresh and reach the next incarnation.
func (h *Host) stopObject(ctx context.Context, l loid.LOID) (persist.OPR, error) {
	s, err := h.drain(ctx, l)
	if err == nil {
		h.evict(l, oa.Element{})
	}
	return s, err
}

// CrashResidents models a machine crash from the host's side: every
// resident object is torn down WITHOUT SaveState — volatile state is
// simply gone, exactly as on a power failure — and its migration gate
// goes with it, the calls parked there unanswered. Returns the LOIDs
// that were lost. (The chaos controller pairs this with crashing the
// node's network endpoint and notifying the Magistrate via HostFailed.)
func (h *Host) CrashResidents() []loid.LOID {
	h.mu.Lock()
	lost := make([]loid.LOID, 0, len(h.running))
	for id := range h.running {
		lost = append(lost, id.LOID())
	}
	h.running = make(map[loid.Ident]*resident)
	h.mu.Unlock()
	for _, l := range lost {
		h.node.Kill(l)
		h.node.DropGate(l)
	}
	return lost
}

// SaveState implements rt.Impl. A Host Object's identity is tied to
// its machine; it persists only its limits.
func (h *Host) SaveState() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var w wire.Writer
	w.U64(h.cpuLimit)
	w.U64(h.memLimit)
	return w.Bytes(), nil
}

// RestoreState implements rt.Impl.
func (h *Host) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	r := wire.NewReader(state)
	cpu, mem := r.U64(), r.U64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("host: state: %w", err)
	}
	h.mu.Lock()
	h.cpuLimit, h.memLimit = cpu, mem
	h.mu.Unlock()
	return nil
}

// Running returns the number of objects the host currently runs.
func (h *Host) Running() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.running)
}
