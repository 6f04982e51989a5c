// Package host implements Legion Host Objects (§2.3, §3.9): the
// representative of a machine to Legion, "ultimately responsible for
// deciding which objects can run on the host it represents". A Host
// Object starts and stops objects on its node, enforces its capacity
// and access policy, reaps stopped objects, and reports load through
// GetState. Host Objects are started from outside Legion (§4.2.1) and
// register themselves with the class LegionHost.
package host

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Interface is the member-function set every Host Object exports
// (§3.9 names Activate, Deactivate, SetCPUload, SetMemoryUsage and
// GetState; StartObject/StopObject are their object-granular forms).
var Interface = idl.NewInterface("LegionHost",
	idl.MethodSig{Name: "StartObject",
		Params: []idl.Param{
			{Name: "object", Type: idl.TLOID},
			{Name: "impl", Type: idl.TString},
			{Name: "state", Type: idl.TBytes},
		},
		Returns: []idl.Param{{Name: "addr", Type: idl.TAddress}}},
	idl.MethodSig{Name: "StopObject",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "state", Type: idl.TBytes}, {Name: "impl", Type: idl.TString}}},
	idl.MethodSig{Name: "KillObject",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}}},
	idl.MethodSig{Name: "HasObject",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "running", Type: idl.TBool}}},
	idl.MethodSig{Name: "ListObjects",
		Returns: []idl.Param{{Name: "objects", Type: idl.TBytes}}},
	idl.MethodSig{Name: "GetState",
		Returns: []idl.Param{
			{Name: "objects", Type: idl.TUint64},
			{Name: "cpuLimit", Type: idl.TUint64},
			{Name: "memLimit", Type: idl.TUint64},
		}},
	idl.MethodSig{Name: "SetCPULoad",
		Params: []idl.Param{{Name: "limit", Type: idl.TUint64}}},
	idl.MethodSig{Name: "SetMemoryUsage",
		Params: []idl.Param{{Name: "limit", Type: idl.TUint64}}},
	idl.MethodSig{Name: "GetLoad",
		Returns: []idl.Param{{Name: "load", Type: idl.TBytes}}},
	idl.MethodSig{Name: "PrepareMigrate",
		Params:  []idl.Param{{Name: "object", Type: idl.TLOID}},
		Returns: []idl.Param{{Name: "state", Type: idl.TBytes}, {Name: "impl", Type: idl.TString}}},
	idl.MethodSig{Name: "AbortMigrate",
		Params: []idl.Param{{Name: "object", Type: idl.TLOID}}},
	idl.MethodSig{Name: "FinishMigrate",
		Params: []idl.Param{
			{Name: "object", Type: idl.TLOID},
			{Name: "newAddr", Type: idl.TAddress},
		}},
	idl.MethodSig{Name: "AdoptObjects",
		Params:  []idl.Param{{Name: "snapshot", Type: idl.TBytes}},
		Returns: []idl.Param{{Name: "adopted", Type: idl.TUint64}}},
)

// ServiceConcurrency is the number of dispatch workers given to
// objects whose implementations are registered concurrency-safe.
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

	mu       sync.Mutex
	running  map[loid.LOID]*resident
	cpuLimit uint64 // max concurrently active objects; 0 = unlimited
	memLimit uint64 // advisory memory budget, reported via GetState
	obj      *rt.Object
	ckpt     *checkpointer  // periodic durability loop; nil when off
	loadRep  *loadReporter  // heartbeat load reports; nil when off
	telem    *obs.Telemetry // piggybacked telemetry; nil when off

	meter loadMeter // dispatch-rate sampling for the load vector
}

// resident is everything the host keeps about one object it runs. The
// record is made when the object arrives (start, adoption) and dropped
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
		running: make(map[loid.LOID]*resident),
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
func (h *Host) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	switch inv.Method {
	case "StartObject":
		return h.startObject(inv)
	case "StopObject":
		return h.stopObject(inv)
	case "KillObject":
		return h.killObject(inv)
	case "HasObject":
		l, err := argLOID(inv, 0)
		if err != nil {
			return nil, err
		}
		_, ok := h.node.Lookup(l)
		return [][]byte{wire.Bool(ok)}, nil
	case "ListObjects":
		h.mu.Lock()
		ls := make([]loid.LOID, 0, len(h.running))
		for l := range h.running {
			ls = append(ls, l)
		}
		h.mu.Unlock()
		return [][]byte{wire.LOIDList(ls)}, nil
	case "GetState":
		h.mu.Lock()
		defer h.mu.Unlock()
		return [][]byte{
			wire.Uint64(uint64(len(h.running))),
			wire.Uint64(h.cpuLimit),
			wire.Uint64(h.memLimit),
		}, nil
	case "SetCPULoad":
		v, err := argUint64(inv, 0)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.cpuLimit = v
		h.mu.Unlock()
		return nil, nil
	case "SetMemoryUsage":
		v, err := argUint64(inv, 0)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.memLimit = v
		h.mu.Unlock()
		return nil, nil
	case "GetLoad":
		return [][]byte{h.LoadNow().Marshal()}, nil
	case "PrepareMigrate":
		return h.prepareMigrate(inv)
	case "AbortMigrate":
		return h.abortMigrate(inv)
	case "FinishMigrate":
		return h.finishMigrate(inv)
	case "AdoptObjects":
		return h.adoptObjects(inv)
	}
	return nil, &rt.NoSuchMethodError{Method: inv.Method}
}

func (h *Host) startObject(inv *rt.Invocation) ([][]byte, error) {
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
	// Idempotent activation: if the object is already running here,
	// report its address.
	if _, ok := h.node.Lookup(l); ok {
		return [][]byte{wire.Address(h.Address())}, nil
	}
	h.mu.Lock()
	if h.cpuLimit > 0 && uint64(len(h.running)) >= h.cpuLimit {
		h.mu.Unlock()
		return nil, fmt.Errorf("host %v at capacity (%d objects)", h.self, h.cpuLimit)
	}
	h.mu.Unlock()

	impl, err := h.impls.New(implName)
	if err != nil {
		return nil, err
	}
	if len(state) > 0 {
		if err := impl.RestoreState(state); err != nil {
			return nil, fmt.Errorf("host %v: restore %v: %w", h.self, l, err)
		}
	}
	// Label by canonical ID (key fingerprint stripped) so per-object
	// metrics join with the Magistrate's placement table, which indexes
	// by ID as well.
	opts := []rt.SpawnOption{rt.WithLabel("obj/" + l.ID().String())}
	if h.newRes != nil {
		opts = append(opts, rt.WithCaller(rt.NewCaller(h.node, l, h.newRes(l))))
	}
	if h.impls.IsConcurrent(implName) {
		opts = append(opts, rt.WithConcurrency(ServiceConcurrency))
	}
	if _, err := h.node.Spawn(l, impl, opts...); err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.running[l.ID()] = &resident{impl: implName}
	h.mu.Unlock()
	return [][]byte{wire.Address(h.Address())}, nil
}

// stopObject saves the object's state, removes it from the node, and
// returns (state, implName). Because host and object share the node,
// SaveState is delivered through the object's own mailbox (a message),
// so it serializes after any in-flight method.
func (h *Host) stopObject(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	r, ok := h.running[l.ID()]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("host %v does not run %v", h.self, l)
	}
	res, err := h.obj.Caller().CallAddr(h.Address(), l, "SaveState")
	if err != nil {
		return nil, fmt.Errorf("host %v: save %v: %w", h.self, l, err)
	}
	state, err := res.Result(0)
	if err != nil {
		return nil, fmt.Errorf("host %v: save %v: %w", h.self, l, err)
	}
	h.node.Kill(l)
	// A pending migration drain gate must not outlive the object:
	// bounce its parked frames back to their callers' retry loops.
	h.node.Unpark(l)
	h.mu.Lock()
	delete(h.running, l.ID())
	h.mu.Unlock()
	return [][]byte{state, wire.String(r.impl)}, nil
}

func (h *Host) killObject(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	h.node.Kill(l)
	h.node.Unpark(l)
	h.mu.Lock()
	delete(h.running, l.ID())
	h.mu.Unlock()
	return nil, nil
}

// CrashResidents models a machine crash from the host's side: every
// resident object is torn down WITHOUT SaveState — volatile state is
// simply gone, exactly as on a power failure. Returns the LOIDs that
// were lost. (The chaos controller pairs this with crashing the node's
// network endpoint and notifying the Magistrate via HostFailed.)
func (h *Host) CrashResidents() []loid.LOID {
	h.mu.Lock()
	lost := make([]loid.LOID, 0, len(h.running))
	for l := range h.running {
		lost = append(lost, l)
	}
	h.running = make(map[loid.LOID]*resident)
	h.mu.Unlock()
	for _, l := range lost {
		h.node.Kill(l)
	}
	return lost
}

// SaveState implements rt.Impl. A Host Object's identity is tied to
// its machine; it persists only its limits.
func (h *Host) SaveState() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := wire.Uint64(h.cpuLimit)
	return append(out, wire.Uint64(h.memLimit)...), nil
}

// RestoreState implements rt.Impl.
func (h *Host) RestoreState(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	if len(state) != 16 {
		return fmt.Errorf("host: bad state length %d", len(state))
	}
	cpu, _ := wire.AsUint64(state[:8])
	mem, _ := wire.AsUint64(state[8:])
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

// argLOID, argString, argUint64 unpack typed invocation arguments.
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

func argUint64(inv *rt.Invocation, i int) (uint64, error) {
	a, err := inv.Arg(i)
	if err != nil {
		return 0, err
	}
	return wire.AsUint64(a)
}
