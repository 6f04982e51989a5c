// Package sim builds whole Legion deployments and drives workloads
// over them, collecting the per-component request counts that §5's
// scalability claims are about. It is the measurement substrate for
// every experiment in EXPERIMENTS.md: the paper has no testbed
// numbers, so the simulator provides the controlled environment in
// which the paper's mechanisms (caching, the Binding Agent tree, class
// cloning, stale-binding recovery) can be demonstrated quantitatively.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/trace"
	"repro/internal/wire"
)

// WorkerImplName is the instance implementation the simulator deploys:
// a small stateful object answering Work() and carrying a padded state
// blob so lifecycle experiments can scale state size.
const WorkerImplName = "sim.worker"

// NewWorkerImpl is the implreg factory for WorkerImplName.
func NewWorkerImpl() rt.Impl { return new(worker) }

// worker is one instance's state. Everything the instances have in
// common — the interface, the dispatch table — is code or the shared
// workerInterface, so an instance costs only these fields.
type worker struct {
	mu    sync.Mutex
	calls uint64
	pad   []byte
}

// Interface implements rt.Impl.
func (w *worker) Interface() *idl.Interface { return workerInterface }

// Dispatch implements rt.Impl.
func (w *worker) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	switch inv.Method {
	case "Work":
		w.mu.Lock()
		w.calls++
		n := w.calls
		w.mu.Unlock()
		return [][]byte{wire.Uint64(n)}, nil
	case "Pad":
		raw, err := inv.Arg(0)
		if err != nil {
			return nil, err
		}
		sz, err := wire.AsUint64(raw)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.pad = make([]byte, sz)
		w.mu.Unlock()
		return nil, nil
	}
	return nil, &rt.NoSuchMethodError{Method: inv.Method}
}

// SaveState implements rt.Impl.
func (w *worker) SaveState() ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append(wire.Uint64(w.calls), w.pad...), nil
}

// RestoreState implements rt.Impl.
func (w *worker) RestoreState(s []byte) error {
	if len(s) == 0 {
		return nil
	}
	if len(s) < 8 {
		return fmt.Errorf("sim.worker: short state")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	w.calls, err = wire.AsUint64(s[:8])
	w.pad = append([]byte(nil), s[8:]...)
	return err
}

// workerInterface is built once; it is immutable from then on.
var workerInterface = idl.NewInterface("SimWorker",
	idl.MethodSig{Name: "Work", Returns: []idl.Param{{Name: "calls", Type: idl.TUint64}}},
	idl.MethodSig{Name: "Pad", Params: []idl.Param{{Name: "size", Type: idl.TUint64}}},
)

// WorkerInterface describes the worker instances. Every call returns
// the same interface; callers must not modify it.
func WorkerInterface() *idl.Interface { return workerInterface }

// Config sizes a simulated deployment.
type Config struct {
	Jurisdictions        int
	HostsPerJurisdiction int
	LeafAgents           int
	AgentFanout          int
	AgentCacheSize       int
	Classes              int
	ObjectsPerClass      int
	Clients              int
	ClientCacheSize      int
	CallTimeout          time.Duration
	BindingTTL           time.Duration
	Seed                 int64
	// TraceSampleEvery, when > 0, installs a tracer sampling one root
	// invocation in N (1 = trace everything). 0 disables tracing.
	TraceSampleEvery int
	// CheckpointEvery, when > 0, runs the hosts' checkpoint loops: a
	// crashed host's residents then reactivate from their newest
	// checkpoint instead of a blank state. 0 keeps checkpointing off.
	CheckpointEvery time.Duration
	// LoadReportEvery, when > 0, runs the hosts' load-vector heartbeat
	// loops, feeding the Magistrates' load tables (load-aware placement,
	// rebalancing). 0 keeps reporting off.
	LoadReportEvery time.Duration
	// DataDir, when set, makes the deployment durable (on-disk OPRs and
	// a restorable system snapshot) — see core.Options.DataDir.
	DataDir string
	// StoreBackend selects the jurisdiction storage engine ("mem" or
	// "segment"); see core.Options.StoreBackend. "segment" with no
	// DataDir gets a temporary DataDir, removed on Close.
	StoreBackend string
	// Obs, when true, builds the observability plane: per-method SLO
	// histograms with trace exemplars, a flight recorder on every node,
	// and LQL queries over the Magistrates' live metadata (Sim.Query).
	Obs bool
	// Clock, when set, puts the whole deployment on an explicit time
	// base (see core.Options.Clock). A clock.Virtual makes every reply
	// timer, backoff, TTL, and loop tick deterministic — tests drive
	// time with Advance/Step instead of sleeping.
	Clock clock.Clock
}

func (c *Config) fill() {
	if c.Jurisdictions <= 0 {
		c.Jurisdictions = 1
	}
	if c.HostsPerJurisdiction <= 0 {
		c.HostsPerJurisdiction = 1
	}
	if c.LeafAgents <= 0 {
		c.LeafAgents = 1
	}
	if c.Classes <= 0 {
		c.Classes = 1
	}
	if c.ObjectsPerClass <= 0 {
		c.ObjectsPerClass = 1
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Sim is a built deployment plus its population.
type Sim struct {
	Config  Config
	Sys     *core.System
	Reg     *metrics.Registry
	Classes []*class.Client
	// Objects holds every created instance, grouped by class.
	Objects [][]loid.LOID
	// Flat is every object in one slice.
	Flat    []loid.LOID
	Clients []*rt.Caller
	// Tracer is non-nil when Config.TraceSampleEvery > 0; every node in
	// the deployment records spans into it.
	Tracer *trace.Tracer
	// Plane is non-nil when Config.Obs is set: the deployment's
	// observability plane (LQL queries, flight recorder, SLO
	// histograms).
	Plane *obs.Plane

	rng *rand.Rand
	mu  sync.Mutex

	// tmpData is a Build-created store directory (StoreBackend with no
	// DataDir); Close removes it.
	tmpData string
}

// buildSet is the most objects Build makes in one CreateSet.
const buildSet = 1024

// Build boots a system per cfg and populates classes, objects, and
// clients. Each class's objects are made in sets of at most buildSet,
// as that many lone Creates would make them.
func Build(cfg Config) (*Sim, error) {
	cfg.fill()
	impls := implreg.NewRegistry()
	impls.MustRegister(WorkerImplName, NewWorkerImpl)
	reg := metrics.NewRegistry()
	var tracer *trace.Tracer
	if cfg.TraceSampleEvery > 0 {
		tracer = trace.New(trace.Config{SampleEvery: cfg.TraceSampleEvery})
	}
	var plane *obs.Plane
	if cfg.Obs {
		plane = obs.NewPlane(obs.Config{
			Host:     "sim",
			Registry: reg,
			Tracer:   tracer,
		})
	}
	tmpData, dataDir := "", cfg.DataDir
	if cfg.StoreBackend != "" && cfg.StoreBackend != "mem" && dataDir == "" {
		// A disk backend needs a root. A fresh directory holds no
		// snapshot, so the deployment still boots blank.
		d, err := os.MkdirTemp("", "legion-sim-store-")
		if err != nil {
			return nil, fmt.Errorf("sim: store dir: %w", err)
		}
		tmpData, dataDir = d, d
	}
	sys, err := core.Boot(core.Options{
		Registry:             reg,
		Impls:                impls,
		Jurisdictions:        cfg.Jurisdictions,
		HostsPerJurisdiction: cfg.HostsPerJurisdiction,
		LeafAgents:           cfg.LeafAgents,
		AgentFanout:          cfg.AgentFanout,
		AgentCacheSize:       cfg.AgentCacheSize,
		ClientCacheSize:      cfg.ClientCacheSize,
		BindingTTL:           cfg.BindingTTL,
		CallTimeout:          cfg.CallTimeout,
		Tracer:               tracer,
		CheckpointEvery:      cfg.CheckpointEvery,
		LoadReportEvery:      cfg.LoadReportEvery,
		DataDir:              dataDir,
		StoreBackend:         cfg.StoreBackend,
		Obs:                  plane,
		Clock:                cfg.Clock,
	})
	if err != nil {
		if tmpData != "" {
			os.RemoveAll(tmpData)
		}
		return nil, err
	}
	s := &Sim{Config: cfg, Sys: sys, Reg: reg, Tracer: tracer, Plane: plane, rng: rand.New(rand.NewSource(cfg.Seed)), tmpData: tmpData}
	s.Flat = make([]loid.LOID, 0, cfg.Classes*cfg.ObjectsPerClass)

	var allMags []loid.LOID
	for _, j := range sys.Jurisdictions {
		allMags = append(allMags, j.Magistrate)
	}
	for c := 0; c < cfg.Classes; c++ {
		name := fmt.Sprintf("Worker%d", c)
		cl, _, err := sys.DeriveClass(name, WorkerImplName, WorkerInterface(), 0)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("sim: derive %s: %w", name, err)
		}
		if err := cl.SetDefaultMagistrates(allMags); err != nil {
			sys.Close()
			return nil, err
		}
		s.Classes = append(s.Classes, cl)
		start := len(s.Flat)
		for o := 0; o < cfg.ObjectsPerClass; o += buildSet {
			n := min(buildSet, cfg.ObjectsPerClass-o)
			made, err := class.CreateSet.Call(context.Background(), cl.Ref, class.NewSet{Count: uint64(n)})
			if err != nil {
				sys.Close()
				return nil, fmt.Errorf("sim: create objects %d to %d of %s: %w", o, o+n-1, name, err)
			}
			for _, m := range made {
				s.Flat = append(s.Flat, m.LOID)
			}
		}
		// A class's objects are its run of Flat, not a second copy.
		end := len(s.Flat)
		s.Objects = append(s.Objects, s.Flat[start:end:end])
	}
	for i := 0; i < cfg.Clients; i++ {
		cli, err := sys.NewClient(loid.New(300, uint64(i+1), loid.DeriveKey(fmt.Sprintf("client/%d", i))))
		if err != nil {
			sys.Close()
			return nil, err
		}
		s.Clients = append(s.Clients, cli)
	}
	return s, nil
}

// Close tears the deployment down.
func (s *Sim) Close() {
	s.Sys.Close()
	if s.tmpData != "" {
		os.RemoveAll(s.tmpData)
	}
}

// ResetMetrics zeroes all counters and every client cache's stats —
// called between warm-up and measurement phases.
func (s *Sim) ResetMetrics() {
	s.Reg.Reset()
	for _, c := range s.Clients {
		c.Cache().ResetStats()
	}
}

// ClassRequests reads the request counters of the class objects cls:
// their sum and the busiest one's count. A class object runs like any
// other object, so its counter is req/obj/<its LOID>; the instances
// count under the same prefix, which is why they are read by LOID
// rather than summed by prefix.
func (s *Sim) ClassRequests(cls []*class.Client) (total, busiest uint64) {
	for _, cl := range cls {
		n := s.Reg.CounterValue("req/obj/" + cl.Class().ID().String())
		total += n
		busiest = max(busiest, n)
	}
	return total, busiest
}

// Query evaluates one LQL query on the deployment's observability
// plane (Config.Obs must be set).
func (s *Sim) Query(q string) (*obs.Table, error) {
	return s.Plane.Query(q)
}

// Intn is the sim's seeded randomness.
func (s *Sim) Intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// Float64 is the sim's seeded uniform variate.
func (s *Sim) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}
