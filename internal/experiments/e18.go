package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RunE18 measures crash recovery with durable state. §2.2/§3.1 make the
// Object Persistent Representation the unit of fault tolerance: an
// object whose OPR survives can be reactivated anywhere in its
// jurisdiction. This experiment closes that loop three ways. (1) A host
// crash observed by a failure detector: every checkpointed resident is
// reactivated from its newest OPR and continues from its checkpointed
// state — zero checkpointed-state loss, recovery latency bounded.
// (2) E16-style crash/restart churn with the checkpoint loop and the
// breaker-driven detector running: availability stays high AND no
// object ever regresses below its pre-churn checkpoint. (3) A full
// daemon restart over -data-dir: the whole system (metaclass, class
// tables, magistrate records, OPRs) comes back from disk and every
// object resumes from its snapshot, through the ordinary first-touch
// activation path.
func RunE18(scale Scale) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "Crash recovery from persistent representations (§2.2, §3.1, §4.3)",
		Claim:   "checkpointed OPRs make crashes survivable: a detected host crash loses zero checkpointed state and reactivates its residents with bounded latency; under crash/restart churn no object regresses below its checkpoint; and a full daemon restart over a data dir resumes every object from its snapshot",
		Columns: []string{"scenario", "objects", "calls", "success", "state regressions", "recovery p50", "recovery p99"},
	}

	crash, err := e18HostCrash(scale)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, crash.row("host crash (detected)"))

	churn, err := e18Churn(scale)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, churn.row("crash/restart churn"))

	restart, err := e18Restart(scale)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, restart.row("daemon restart (-data-dir)"))

	holds := crash.regressions == 0 && restart.regressions == 0 && churn.regressions == 0 &&
		crash.success() == 1 && restart.success() == 1 &&
		churn.success() >= 0.97 &&
		crash.p99() < 2*time.Second && restart.p99() < 5*time.Second
	if holds {
		t.Finding = fmt.Sprintf("holds: zero checkpointed-state loss across a detected host crash (recovery p99 %s), churn (%.1f%% availability, no checkpoint regression), and a full daemon restart (recovery p99 %s)",
			crash.p99().Round(100*time.Microsecond), churn.success()*100,
			restart.p99().Round(100*time.Microsecond))
	} else {
		t.Finding = fmt.Sprintf("NOT holding: regressions crash=%d churn=%d restart=%d, churn success %.1f%%",
			crash.regressions, churn.regressions, restart.regressions, churn.success()*100)
	}
	return t, nil
}

// e18Result is one recovery scenario's outcome.
type e18Result struct {
	objects     int
	calls       int
	failures    int
	regressions int // objects that lost checkpointed state
	latencies   []time.Duration
}

func (r *e18Result) success() float64 {
	if r.calls == 0 {
		return 0
	}
	return float64(r.calls-r.failures) / float64(r.calls)
}

func (r *e18Result) pctl(q float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.latencies...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(float64(len(s)) * q)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func (r *e18Result) p99() time.Duration { return r.pctl(0.99) }

func (r *e18Result) row(name string) []string {
	return []string{
		name,
		fmt.Sprintf("%d", r.objects),
		fmt.Sprintf("%d", r.calls),
		fmt.Sprintf("%.1f%%", r.success()*100),
		fmt.Sprintf("%d", r.regressions),
		r.pctl(0.50).Round(10 * time.Microsecond).String(),
		r.p99().Round(100 * time.Microsecond).String(),
	}
}

// e18Probe drives one recovery probe per target concurrently: each
// goroutine calls Work until it succeeds (or the deadline passes) and
// records the elapsed time from t0 plus whether the returned count
// proves the checkpointed state survived (count > pre, i.e. at least
// checkpoint+1).
func e18Probe(cli *rt.Caller, targets []loid.LOID, pre map[loid.LOID]uint64, t0 time.Time, budget time.Duration) *e18Result {
	res := &e18Result{objects: len(targets)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, l := range targets {
		wg.Add(1)
		go func(l loid.LOID) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), t0.Add(budget))
			defer cancel()
			var (
				val  uint64
				ok   bool
				took time.Duration
			)
			for !ok && ctx.Err() == nil {
				r, err := cli.CallCtx(ctx, l, "Work")
				if err == nil && r.Err() == nil {
					raw, _ := r.Result(0)
					val, _ = wire.AsUint64(raw)
					took = time.Since(t0)
					ok = true
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.calls++
			if !ok {
				res.failures++
				res.regressions++ // unreachable counts as lost
				return
			}
			res.latencies = append(res.latencies, took)
			if val <= pre[l.ID()] {
				res.regressions++
			}
		}(l)
	}
	wg.Wait()
	return res
}

// e18Warm calls every object rounds times and records the final count,
// keyed by the key-stripped LOID (crash reports strip keys too).
func e18Warm(s *sim.Sim, rounds int) (map[loid.LOID]uint64, error) {
	pre := make(map[loid.LOID]uint64)
	for _, l := range s.Flat {
		for i := 0; i < rounds; i++ {
			res, err := s.Clients[0].Call(l, "Work")
			if err != nil || res.Code != wire.OK {
				return nil, fmt.Errorf("E18 warm %v: %v %v", l, res, err)
			}
			raw, _ := res.Result(0)
			pre[l.ID()], _ = wire.AsUint64(raw)
		}
	}
	return pre, nil
}

// e18HostCrash: checkpoint everything, power-fail a host, deliver the
// failure notice, and probe every lost resident. The magistrate's eager
// reactivation plus stale-binding refresh must bring each one back with
// its checkpointed count — the first post-crash call returns pre+1.
func e18HostCrash(scale Scale) (*e18Result, error) {
	objects := 8
	if scale == Full {
		objects = 32
	}
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      objects,
		CallTimeout:          200 * time.Millisecond,
		CheckpointEvery:      time.Hour, // forced explicitly below
		Seed:                 11,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	pre, err := e18Warm(s, 3)
	if err != nil {
		return nil, err
	}
	if n, err := s.CheckpointNow(); err != nil || n == 0 {
		return nil, fmt.Errorf("E18 checkpoint: %d, %v", n, err)
	}

	cli := s.Clients[0]
	cli.Retry = rt.RetryPolicy{MaxAttempts: 20, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	t0 := time.Now()
	allLost, err := s.CrashHostAndDetect(0, 1)
	if err != nil {
		return nil, err
	}
	var lost []loid.LOID
	for _, l := range allLost {
		for _, f := range s.Flat {
			if f.SameObject(l) {
				lost = append(lost, l)
				break
			}
		}
	}
	if len(lost) == 0 {
		return nil, fmt.Errorf("E18: crashed host ran no workers")
	}
	res := e18Probe(cli, lost, pre, t0, 10*time.Second)
	res.objects = len(s.Flat)
	return res, nil
}

// e18Churn: the E16 fault regime — crash/restart cycles under an
// open-loop deadline-bounded call stream — but with the checkpoint loop
// running and the breaker detector closing the failure-detection loop.
// Afterwards every object is probed once: its count must exceed the
// pre-churn checkpoint, i.e. no crash in the middle rolled anything
// back past a checkpoint.
func e18Churn(scale Scale) (*e18Result, error) {
	measureFor := 2 * time.Second
	if scale == Full {
		measureFor = 8 * time.Second
	}
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      12,
		Clients:              4,
		CallTimeout:          150 * time.Millisecond,
		CheckpointEvery:      50 * time.Millisecond,
		Seed:                 13,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	pre, err := e18Warm(s, 2)
	if err != nil {
		return nil, err
	}
	if _, err := s.CheckpointNow(); err != nil {
		return nil, err
	}
	tr := s.EnableHealth(health.Config{FailureThreshold: 3, OpenDuration: 300 * time.Millisecond})
	stopDet := s.StartHealthDetector(tr, 40*time.Millisecond)
	defer stopDet()

	crashes := 0
	stopChurn, err := s.StartChurn(0, []int{1, 2}, 2*time.Second, 1200*time.Millisecond, &crashes)
	if err != nil {
		return nil, err
	}
	fr := s.RunFaultCalls(sim.FaultLoad{
		Duration: measureFor,
		Deadline: 600 * time.Millisecond,
		Pace:     4 * time.Millisecond,
		Retry: rt.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: 15 * time.Millisecond,
			MaxBackoff:  80 * time.Millisecond,
		},
	})
	stopChurn() // waits for any in-flight crash to be restarted

	// Post-churn sweep: everything reachable, nothing behind its
	// pre-churn checkpoint.
	probe := e18Probe(s.Clients[0], s.Flat, pre, time.Now(), 10*time.Second)
	return &e18Result{
		objects:     len(s.Flat),
		calls:       fr.Calls,
		failures:    fr.Failures,
		regressions: probe.regressions,
		latencies:   probe.latencies,
	}, nil
}

// e18Restart: a durable system (core.Boot with DataDir) is checkpointed,
// snapshotted, and torn down without deactivating anything — modelling
// `legiond -data-dir` being killed. A second Boot over the same
// directory restores the tables; probing each object must return its
// checkpointed count + 1, through ordinary first-touch activation.
func e18Restart(scale Scale) (*e18Result, error) {
	objects := 8
	if scale == Full {
		objects = 32
	}
	dir, err := os.MkdirTemp("", "e18-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	boot := func() (*core.System, error) {
		impls := implreg.NewRegistry()
		impls.MustRegister(sim.WorkerImplName, sim.NewWorkerImpl)
		return core.Boot(core.Options{
			Registry:             metrics.NewRegistry(),
			Impls:                impls,
			HostsPerJurisdiction: 2,
			DataDir:              dir,
			CheckpointEvery:      time.Hour,
			CallTimeout:          2 * time.Second,
		})
	}
	sys, err := boot()
	if err != nil {
		return nil, err
	}
	cl, _, err := sys.DeriveClass("E18Worker", sim.WorkerImplName, sim.WorkerInterface(), 0)
	if err != nil {
		sys.Close()
		return nil, err
	}
	var flat []loid.LOID
	for i := 0; i < objects; i++ {
		made, err := class.Create.Call(context.Background(), cl.Ref, nil, loid.Nil, loid.Nil)
		if err != nil {
			sys.Close()
			return nil, err
		}
		flat = append(flat, made.LOID)
	}
	cli, err := sys.NewClient(loid.NewNoKey(300, 1))
	if err != nil {
		sys.Close()
		return nil, err
	}
	pre := make(map[loid.LOID]uint64)
	for _, l := range flat {
		for i := 0; i < 3; i++ {
			res, err := cli.Call(l, "Work")
			if err != nil || res.Code != wire.OK {
				sys.Close()
				return nil, fmt.Errorf("E18 restart warm: %v %v", res, err)
			}
			raw, _ := res.Result(0)
			pre[l.ID()], _ = wire.AsUint64(raw)
		}
	}
	if n, err := sys.CheckpointNow(); err != nil || n == 0 {
		sys.Close()
		return nil, fmt.Errorf("E18 restart checkpoint: %d, %v", n, err)
	}
	if err := sys.SaveSnapshot(); err != nil {
		sys.Close()
		return nil, err
	}
	sys.Close() // running copies vanish; only disk remains

	t0 := time.Now()
	sys2, err := boot()
	if err != nil {
		return nil, err
	}
	defer sys2.Close()
	cli2, err := sys2.NewClient(loid.NewNoKey(300, 2))
	if err != nil {
		return nil, err
	}
	cli2.Retry = rt.RetryPolicy{MaxAttempts: 20, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	return e18Probe(cli2, flat, pre, t0, 15*time.Second), nil
}
