// Package core bootstraps a complete Legion system: the five core
// Abstract class objects (§2.1.3), Host Objects, Magistrates and their
// Jurisdictions, and a tree of Binding Agents — wired exactly as
// §4.2.1 prescribes: the core objects are started "outside" Legion
// (here: by Boot), Host Objects and Magistrates then contact their
// classes to announce their existence, and everything after that is
// created through the ordinary Create/Derive machinery.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Options configures Boot. The zero value yields a single-jurisdiction,
// single-host system with one Binding Agent over an in-process fabric.
type Options struct {
	// Transport carries all messages; nil creates a new mem Fabric.
	Transport transport.Transport
	// Registry receives metrics; nil creates a new one.
	Registry *metrics.Registry
	// Impls is the implementation registry; nil creates one. The
	// class-object implementation is always registered.
	Impls *implreg.Registry
	// Jurisdictions is the number of Magistrates (default 1).
	Jurisdictions int
	// HostsPerJurisdiction is the number of Host Objects per
	// Magistrate (default 1).
	HostsPerJurisdiction int
	// LeafAgents is the number of leaf Binding Agents clients are
	// spread over (default 1).
	LeafAgents int
	// AgentFanout shapes the Binding Agent combining tree (§5.2.2):
	// every AgentFanout agents share a parent, recursively, until a
	// single root talks to the class path. Zero or negative keeps the
	// agents flat — every leaf walks the class path itself.
	AgentFanout int
	// AgentCacheSize is each agent's binding-cache capacity
	// (0 = unbounded).
	AgentCacheSize int
	// ClientCacheSize is the default per-client binding cache size
	// (0 = rt.DefaultBindingCacheSize).
	ClientCacheSize int
	// BindingTTL bounds magistrate-issued bindings (0 = forever).
	BindingTTL time.Duration
	// CallTimeout is the per-wave reply deadline for all bootstrapped
	// callers (default 5s).
	CallTimeout time.Duration
	// DataDir makes the whole system restartable: each jurisdiction's
	// storage is a segment log under DataDir/j<N>, and Boot restores the
	// metaclass, core class, and magistrate tables from
	// DataDir/system.state when one exists (written by SaveSnapshot).
	// Objects come back inert from their newest persistent
	// representation and reactivate on first touch.
	DataDir string
	// SyncOPRs has no effect. Segment-store writes are always fsynced
	// by their group commit and SaveSnapshot always fsyncs
	// system.state. It remains only because the benchmark harness
	// still sets it.
	SyncOPRs bool
	// StoreBackend selects the jurisdiction storage engine: "mem" or
	// "segment" (persist.Backends). Empty means "segment" when DataDir
	// is set, else "mem". "segment" needs DataDir.
	StoreBackend string
	// CheckpointEvery, when > 0, starts a checkpoint loop on every Host
	// Object: each interval, residents whose state changed since the
	// last round are snapshotted into the Jurisdiction's store via the
	// Magistrate, so a host crash loses at most one interval of work.
	// Zero disables checkpointing (idle objects then cost nothing).
	CheckpointEvery time.Duration
	// LoadReportEvery, when > 0, starts the load-vector heartbeat on
	// every Host Object: each interval, the host pushes its resident
	// count, mailbox backlog, dispatch rate, and checkpoint pressure to
	// its Magistrate, feeding load-aware placement and the rebalancer.
	// Zero disables reporting (placement then uses resident counts
	// alone).
	LoadReportEvery time.Duration
	// Tracer, if set, is installed on every node Boot creates, so each
	// hop of the binding/invocation chain records spans into it. Nil
	// disables tracing (the hot path pays one atomic load).
	Tracer *trace.Tracer
	// Health, if set, is shared by every bootstrapped caller:
	// cooperative failure detection plus breaker state for the debug
	// surface. Nil leaves callers without breakers (prior behaviour).
	Health *health.Tracker
	// Obs, if set, is the cluster observability plane: every node Boot
	// creates gets its per-method SLO observer, every Magistrate feeds
	// its placement/load/generation history into it, and breaker
	// transitions land in its flight recorder. Nil disables the plane
	// (the invocation path then pays one atomic load per serve).
	Obs *obs.Plane
	// Clock is the system-wide time base (nil = wall clock). A
	// clock.Virtual here puts every node's reply timers, deadlines and
	// retry backoffs, every Magistrate's TTLs and load staleness, and
	// every host loop onto deterministic simulated time. The caller
	// drives it with Advance.
	Clock clock.Clock
}

func (o *Options) fill() {
	if o.Jurisdictions <= 0 {
		o.Jurisdictions = 1
	}
	if o.HostsPerJurisdiction <= 0 {
		o.HostsPerJurisdiction = 1
	}
	if o.LeafAgents <= 0 {
		o.LeafAgents = 1
	}
	if o.AgentCacheSize < 0 {
		o.AgentCacheSize = 0
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
}

// AgentRef names a Binding Agent and where to reach it.
type AgentRef struct {
	LOID loid.LOID
	Addr oa.Address
}

// Jurisdiction groups a Magistrate with its hosts and storage (§2.2).
// Store is a MemStore by default, or a segment log rooted under
// Options.DataDir — the on-disk form of Fig 11's jurisdiction disks.
type Jurisdiction struct {
	Magistrate     loid.LOID
	MagistrateAddr oa.Address
	Hosts          []loid.LOID
	HostAddrs      []oa.Address
	Store          persist.Store

	mag       *magistrate.Magistrate
	hostImpls []*host.Host
}

// StoredOPRs counts the Object Persistent Representations currently in
// the jurisdiction's storage.
func (j *Jurisdiction) StoredOPRs() int {
	addrs, err := j.Store.List()
	if err != nil {
		return 0
	}
	return len(addrs)
}

// MagistrateImpl exposes the in-process Magistrate for local
// configuration (activation filters, TTLs) — the jurisdiction owner's
// prerogative.
func (j *Jurisdiction) MagistrateImpl() *magistrate.Magistrate { return j.mag }

// HostImpls exposes the in-process Host Objects (checkpoint control,
// chaos injection), index-aligned with Hosts and HostAddrs. The entry
// of a host that runs in another process is nil.
func (j *Jurisdiction) HostImpls() []*host.Host { return j.hostImpls }

// System is a booted Legion instance.
type System struct {
	Options Options
	// Fabric is set when Boot created the transport itself.
	Fabric *transport.Fabric
	Trans  transport.Transport
	Reg    *metrics.Registry
	Impls  *implreg.Registry

	// LegionClassAddr is where the metaclass answers.
	LegionClassAddr oa.Address
	// CoreClassAddrs maps each core Abstract class to its address.
	CoreClassAddrs map[loid.LOID]oa.Address

	Jurisdictions []*Jurisdiction
	// Leaves are the leaf Binding Agents, in client-assignment order.
	Leaves []AgentRef
	// Agents lists every agent (leaves first, then internal levels up
	// to the root).
	Agents []AgentRef

	// Names is a local naming context for string names (§4.1).
	Names *naming.Context

	meta     *class.Metaclass
	nodes    []*rt.Node
	boot     *rt.Caller
	nextLeaf int
	closed   bool

	mu           sync.Mutex
	schedClasses map[string]*class.Client
	nextHostSeq  uint64
	nextMagSeq   uint64
}

// Boot brings up a Legion system per opts.
func Boot(opts Options) (*System, error) {
	opts.fill()
	sys := &System{
		Options:        opts,
		Reg:            opts.Registry,
		Impls:          opts.Impls,
		Names:          naming.NewContext(),
		CoreClassAddrs: make(map[loid.LOID]oa.Address),
		schedClasses:   make(map[string]*class.Client),
	}
	if sys.Reg == nil {
		sys.Reg = metrics.NewRegistry()
	}
	if sys.Impls == nil {
		sys.Impls = implreg.NewRegistry()
	}
	if !sys.Impls.Has(class.ImplName) {
		// Class objects are internally synchronized, so hosts run them
		// with concurrent dispatch workers.
		sys.Impls.MustRegisterConcurrent(class.ImplName, class.NewEmptyClassImpl)
	}
	registerSchedImpls(sys.Impls)
	if !sys.Impls.Has(naming.ImplName) {
		// Context objects make the persistent shared name space (§1)
		// an ordinary Legion object.
		sys.Impls.MustRegisterConcurrent(naming.ImplName, naming.NewContextImpl)
	}
	sys.Trans = opts.Transport
	if sys.Trans == nil {
		f := transport.NewFabric(sys.Reg)
		sys.Fabric = f
		sys.Trans = f
	}
	if opts.Health != nil && opts.Obs != nil {
		// Breaker transitions are exactly the kind of rare, significant
		// moment the flight recorder exists for, and the breakers table
		// reads the tracker's current state.
		plane := opts.Obs
		plane.SetHealth(opts.Health)
		opts.Health.SetNotify(func(e oa.Element, st health.State) {
			plane.Record(obs.KindBreaker, e.String(), "breaker "+st.String(), 0)
		})
	}

	if err := sys.bootstrap(); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

func (s *System) bootstrap() error {
	// 0. A previous life's snapshot, if DataDir holds one. Restores are
	// threaded through the ordinary bootstrap below: each component is
	// built as usual, then handed its saved tables before anything can
	// call it.
	snap, err := s.loadSnapshot()
	if err != nil {
		return err
	}
	p := s.proc()

	// 1. LegionClass, started exactly once, out-of-band (§4.2.1).
	s.meta, err = class.NewMetaclass()
	if err != nil {
		return err
	}
	if snap != nil && len(snap.Metaclass) > 0 {
		if err := s.meta.RestoreState(snap.Metaclass); err != nil {
			return fmt.Errorf("core: restore LegionClass: %w", err)
		}
		// Saved direct bindings point at dead addresses; drop them so
		// class location goes through the responsibility pairs (which
		// can reactivate) while bootstrap re-registers the core classes
		// at their new homes moments from now.
		s.meta.ForgetBindings()
	}
	metaNode, metaCaller, err := p.spawn("legionclass", "class/LegionClass", loid.LegionClass, nil,
		func(*rt.Node) rt.Impl { return s.meta })
	if err != nil {
		return err
	}
	s.LegionClassAddr = metaNode.Address()
	s.CoreClassAddrs[loid.LegionClass.ID()] = s.LegionClassAddr
	// Callers created before the agents exist get their resolvers
	// wired after bootAgents.
	needResolver := []*rt.Caller{metaCaller}

	// Bootstrap caller: a client identity used only during Boot.
	bootNode, err := p.newNode("boot")
	if err != nil {
		return err
	}
	s.boot = rt.NewCaller(bootNode, loid.NewNoKey(299, 1), nil)
	s.boot.Timeout = s.Options.CallTimeout
	needResolver = append(needResolver, s.boot)
	legionClass := s.boot.To(loid.LegionClass)
	s.boot.AddBinding(bindingFor(loid.LegionClass, s.LegionClassAddr))
	if _, err := class.RegisterClassBinding.Call(context.Background(), legionClass, loid.LegionClass, s.LegionClassAddr); err != nil {
		return err
	}

	// 2. The remaining core Abstract classes (§2.1.3), one node each.
	coreClasses := []struct {
		l    loid.LOID
		name string
	}{
		{loid.LegionObject, "LegionObject"},
		{loid.LegionHost, "LegionHost"},
		{loid.LegionMagistrate, "LegionMagistrate"},
		{loid.LegionBindingAgent, "LegionBindingAgent"},
	}
	for _, cc := range coreClasses {
		meta := &class.Meta{
			Self:  loid.New(cc.l.ClassID, 0, loid.DeriveKey("class/"+cc.name)),
			Name:  cc.name,
			Super: loid.LegionObject,
			Flags: class.FlagAbstract,
		}
		if cc.l.SameObject(loid.LegionObject) {
			meta.Super = loid.Nil // the sink of the kind-of graph
		}
		impl, err := class.NewClassImpl(meta)
		if err != nil {
			return err
		}
		if snap != nil && len(snap.Classes[cc.l.String()]) > 0 {
			if err := impl.RestoreState(snap.Classes[cc.l.String()]); err != nil {
				return fmt.Errorf("core: restore class %s: %w", cc.name, err)
			}
		}
		// Spawned under its keyed self, which names the same object as
		// cc.l and is the identity its calls carry.
		node, caller, err := p.spawn("class-"+cc.name, "class/"+cc.name, meta.Self, nil,
			func(*rt.Node) rt.Impl { return impl })
		if err != nil {
			return err
		}
		caller.AddBinding(bindingFor(loid.LegionClass, s.LegionClassAddr))
		needResolver = append(needResolver, caller)
		s.CoreClassAddrs[cc.l.ID()] = node.Address()
		if _, err := class.RegisterClassBinding.Call(context.Background(), legionClass, cc.l, node.Address()); err != nil {
			return err
		}
	}

	// 3. Binding Agent tree (§5.2.2). Leaves first, then parents per
	// fanout until one root remains.
	if err := s.bootAgents(); err != nil {
		return err
	}
	// Now that agents exist, give every earlier caller its Binding
	// Agent — the runtime analogue of "the persistent state of each
	// Legion object contains the Object Address of its Binding Agent"
	// (§3.6).
	for i, c := range needResolver {
		c.SetResolver(s.leafFor(i).client(c))
	}

	// 4. Hosts and Magistrates per jurisdiction. They are started
	// out-of-band and then "contact the existing class object ... to
	// tell it of their existence" (§4.2.1).
	s.boot.AddBinding(bindingFor(loid.LegionHost, s.CoreClassAddrs[loid.LegionHost.ID()]))
	s.boot.AddBinding(bindingFor(loid.LegionMagistrate, s.CoreClassAddrs[loid.LegionMagistrate.ID()]))
	s.boot.AddBinding(bindingFor(loid.LegionObject, s.CoreClassAddrs[loid.LegionObject.ID()]))
	for j := 0; j < s.Options.Jurisdictions; j++ {
		var saved []byte
		if snap != nil && j < len(snap.Magistrates) {
			saved = snap.Magistrates[j]
		}
		if _, err := s.addJurisdiction(s.Options.HostsPerJurisdiction, saved); err != nil {
			return err
		}
	}

	// 5. Give LegionObject (the class everyone derives from) the full
	// magistrate set as candidates, so Derive works out of the box.
	mags := make([]loid.LOID, len(s.Jurisdictions))
	for i, j := range s.Jurisdictions {
		mags[i] = j.Magistrate
	}
	_, err = class.SetDefaultMagistrates.Call(context.Background(), s.boot.To(loid.LegionObject), mags)
	return err
}

// openStore opens the store of the jurisdiction at index j, per
// Options.StoreBackend and DataDir, rooted at DataDir/j<j>. Records
// quarantined by the open's recovery scan are counted in
// persist/quarantined.
func (s *System) openStore(j int) (persist.Store, error) {
	backend, dir := s.Options.StoreBackend, s.Options.DataDir
	if backend == "" {
		backend = "mem"
		if dir != "" {
			backend = "segment"
		}
	}
	if backend != "mem" && dir == "" {
		return nil, fmt.Errorf("core: store backend %q needs DataDir", backend)
	}
	store, err := persist.Open(backend, fmt.Sprintf("%s/j%d", dir, j), persist.SegmentOptions{Metrics: s.Reg})
	if err != nil {
		return nil, fmt.Errorf("core: open %s store: %w", backend, err)
	}
	if q := store.Stats().Quarantined; q > 0 {
		s.Reg.Counter("persist/quarantined").Add(uint64(q))
	}
	return store, nil
}

// bootAgents builds the agent tree bottom-up.
func (s *System) bootAgents() error {
	newAgent := func(name string, seq uint64) (AgentRef, *bindagent.Agent, error) {
		al := loid.New(loid.ClassIDBindingAgent, seq, loid.DeriveKey("agent/"+name))
		agent := bindagent.New(al, s.Options.AgentCacheSize, s.LegionClassAddr)
		node, _, err := s.proc().spawn(name, "bindagent/"+name, al, nil, func(*rt.Node) rt.Impl { return agent })
		if err != nil {
			return AgentRef{}, nil, err
		}
		ref := AgentRef{LOID: al, Addr: node.Address()}
		// Agents announce themselves to their class (§4.2.1).
		s.boot.AddBinding(bindingFor(loid.LegionBindingAgent, s.CoreClassAddrs[loid.LegionBindingAgent.ID()]))
		if _, err := class.RegisterInstance.Call(context.Background(), s.boot.To(loid.LegionBindingAgent), al, node.Address()); err != nil {
			return AgentRef{}, nil, err
		}
		return ref, agent, nil
	}

	seq := uint64(0)
	type level struct {
		refs   []AgentRef
		agents []*bindagent.Agent
	}
	leaves := level{}
	for i := 0; i < s.Options.LeafAgents; i++ {
		seq++
		ref, ag, err := newAgent(fmt.Sprintf("leaf%d", i), seq)
		if err != nil {
			return err
		}
		leaves.refs = append(leaves.refs, ref)
		leaves.agents = append(leaves.agents, ag)
	}
	s.Leaves = leaves.refs
	s.Agents = append(s.Agents, leaves.refs...)

	if s.Options.AgentFanout <= 1 {
		return nil // flat: every leaf walks the class path itself
	}
	cur := leaves
	depth := 0
	for len(cur.refs) > 1 {
		depth++
		next := level{}
		for i := 0; i < len(cur.refs); i += s.Options.AgentFanout {
			seq++
			ref, ag, err := newAgent(fmt.Sprintf("l%d-%d", depth, i/s.Options.AgentFanout), seq)
			if err != nil {
				return err
			}
			end := i + s.Options.AgentFanout
			if end > len(cur.refs) {
				end = len(cur.refs)
			}
			for k := i; k < end; k++ {
				cur.agents[k].SetParent(ref.LOID, ref.Addr)
			}
			next.refs = append(next.refs, ref)
			next.agents = append(next.agents, ag)
		}
		s.Agents = append(s.Agents, next.refs...)
		cur = next
	}
	return nil
}

// leafFor deterministically assigns a leaf agent by index.
func (s *System) leafFor(i int) AgentRef {
	return s.Leaves[i%len(s.Leaves)]
}

// NextLeaf rotates over leaf agents for client assignment.
func (s *System) NextLeaf() AgentRef {
	ref := s.Leaves[s.nextLeaf%len(s.Leaves)]
	s.nextLeaf++
	return ref
}

// NewClient creates a fresh client identity on its own node, wired to
// the next leaf Binding Agent. The returned caller is what application
// code uses as its communication layer.
func (s *System) NewClient(self loid.LOID) (*rt.Caller, error) {
	p := s.proc()
	node, err := p.newNode("client")
	if err != nil {
		return nil, err
	}
	// The agent client reaches its agent by address, so its caller
	// needs no resolver and takes no health tracker.
	raw := rt.NewCaller(node, self, nil)
	raw.Timeout = s.Options.CallTimeout
	c := p.caller(node, self)
	c.SetResolver(s.NextLeaf().client(raw))
	if s.Options.ClientCacheSize > 0 {
		c.SetCache(newCache(s.Options.ClientCacheSize))
	}
	return c, nil
}

// BootClient returns the system's bootstrap caller (pre-seeded with
// core bindings); tests and tools use it for administrative calls.
func (s *System) BootClient() *rt.Caller { return s.boot }

// Metaclass exposes the in-process LegionClass for white-box
// inspection by tests and experiments.
func (s *System) Metaclass() *class.Metaclass { return s.meta }

// DeriveClass derives a new class from LegionObject: the common path
// for applications. impl must be registered in s.Impls on every host.
func (s *System) DeriveClass(name, impl string, ifc *idl.Interface, flags class.Flags) (*class.Client, loid.LOID, error) {
	lo := class.NewClient(s.boot, loid.LegionObject)
	cl, b, err := lo.Derive(name, impl, ifc, flags, loid.Nil)
	if err != nil {
		return nil, loid.Nil, err
	}
	s.boot.AddBinding(b)
	if err := s.Names.Bind("/classes/"+name, cl, true); err != nil {
		return nil, loid.Nil, err
	}
	return class.NewClient(s.boot, cl), cl, nil
}

// FindObject locates a live object on any of the system's nodes —
// white-box access for tests and experiments that need to configure a
// running object directly (e.g. install a MayI policy), standing in
// for the object configuring itself.
func (s *System) FindObject(l loid.LOID) (*rt.Object, bool) {
	for _, n := range s.nodes {
		if o, ok := n.Lookup(l); ok {
			return o, true
		}
	}
	return nil, false
}

// CountIncarnations reports how many of the system's nodes currently
// run a live copy of l — the exactly-once invariant checker for
// migration and failover tests (a correct system never shows 2).
func (s *System) CountIncarnations(l loid.LOID) int {
	n := 0
	for _, nd := range s.nodes {
		if _, ok := nd.Lookup(l); ok {
			n++
		}
	}
	return n
}

// Close tears the system down.
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	shutdown(s.Jurisdictions, s.nodes)
	for _, j := range s.Jurisdictions {
		_ = j.Store.Close() // teardown: a late writer gets ErrClosed
	}
	if s.Fabric != nil {
		s.Fabric.Close()
	}
}
