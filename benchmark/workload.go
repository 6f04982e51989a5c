package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
)

const (
	// callTimeout is every caller's per-wave reply deadline. No op of
	// these fault-free workloads comes near it; a call that does is a
	// failure worth a whole second in the tail.
	callTimeout = time.Second
	warmUp      = 3 * time.Second
	windowLen   = 3 * time.Second
	// A run sets its workload up at least setupRounds times, and until
	// setupFloor has been spent on it: setup_s is the quickest of them.
	setupRounds = 5
	setupFloor  = 1500 * time.Millisecond
)

// workload is one of the four named workloads.
type workload interface {
	opHooks
	// mix shapes the callers' op streams.
	mix() opMix
	// setup builds the system under test from nothing; close tears it
	// down again. setup may be called again after close.
	setup(r *run) error
	close()
	// attach gives a caller its communication layer and its partition
	// of the population.
	attach(cs *callerState) error
	// registry is where the layers of the system under test count.
	registry() *metrics.Registry
	// clientCallers are the callers whose binding caches are L0.
	clientCallers() []*rt.Caller
	// finish runs after the load, with the common metrics in e: the
	// workload adds its own and returns the invariants it found broken.
	finish(e map[string]float64) (violations []string)
}

// cycleDriver is a workload that replaces the plain warm-up + windows
// schedule with its own (ckpt_failover's cycles).
type cycleDriver interface {
	// drive returns the length of the load windows it measured.
	drive(r *run, callers []*callerState, rec *recorder) (window time.Duration, err error)
}

// deployed is a workload running on a whole simulated deployment, whose
// objects can be swept for the exactly-one-incarnation invariant.
type deployed interface{ system() *sim.Sim }

func newWorkload(name string) (workload, error) {
	switch name {
	case "warm_mem":
		return &warmMem{}, nil
	case "procs_tcp":
		return &procsTCP{}, nil
	case "cold_bind":
		return &coldBind{}, nil
	case "ckpt_failover":
		return &ckptFailover{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"warm_mem", "procs_tcp", "cold_bind", "ckpt_failover"}

// partition returns caller c's share of objs: callers own disjoint,
// contiguous slices, so a per-object counter has exactly one writer.
func partition(objs []loid.LOID, c, callers int) []loid.LOID {
	per := len(objs) / callers
	return objs[c*per : (c+1)*per]
}

// run is one invocation: one workload, one seed.
type run struct {
	workload string
	seed     uint64
	measure  time.Duration // total measured time
	trace    bool
	// quick shrinks populations and phases for the harness's own tests.
	quick   bool
	callers int
	root    string // the checkout
	tmpRoot string // scratch space inside the checkout
	outDir  string
	legiond string // built binary, for procs_tcp

	// procs are the child processes alive right now, for the signal
	// handler to kill.
	mu    sync.Mutex
	procs map[*os.Process]bool
}

func (r *run) track(p *os.Process, alive bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.procs == nil {
		r.procs = make(map[*os.Process]bool)
	}
	if alive {
		r.procs[p] = true
	} else {
		delete(r.procs, p)
	}
}

func (r *run) killTracked() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := range r.procs {
		_ = p.Kill() // already gone is fine
	}
}

// numCallers is the load shape's caller count: min(nproc, 4).
func numCallers() int { return min(runtime.NumCPU(), 4) }

// measured is everything one run produced.
type measured struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	// violations lists broken invariants (a bypassed layer that was
	// used, a child that exited, a lost acknowledged checkpoint).
	violations []string
	samples    uint64    // latency samples behind the percentiles
	rates      []float64 // verified ops/s of each measured window
	p50s, p99s []float64 // call latency percentiles of each window, µs
	windowSecs float64
	digest     uint64
	spans      map[string]spanSummary
}

// execute sets the workload up, drives the load, verifies, and folds
// the measurements into named metrics.
func (r *run) execute() (*measured, error) {
	w, err := newWorkload(r.workload)
	if err != nil {
		return nil, err
	}
	if r.workload == "procs_tcp" {
		// Built before anything is timed: go build is not set-up.
		if r.legiond, err = buildLegiond(r.root); err != nil {
			return nil, err
		}
	}
	defer w.close()

	// Set up at least setupRounds times and for at least setupFloor in
	// all, tearing down in between.
	var setups []float64
	for spent := time.Duration(0); len(setups) == 0 || (!r.quick && (len(setups) < setupRounds || spent < setupFloor)); {
		if len(setups) > 0 {
			w.close()
		}
		t0 := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", r.workload, err)
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
	}

	epoch := time.Now()
	callers, recorders, err := newCallers(w, r, epoch)
	if err != nil {
		return nil, err
	}
	warm, window := warmUp, windowLen
	if r.quick {
		warm, window = 200*time.Millisecond, time.Second
	}
	runLoad(callers, warm, 0)
	before := snapshotCounters(w)
	cpu0, wall0 := userCPU(), time.Now()
	if cd, ok := w.(cycleDriver); ok {
		if r.trace {
			recorders["driver"] = newRecorder(epoch)
		}
		if window, err = cd.drive(r, callers, recorders["driver"]); err != nil {
			return nil, fmt.Errorf("%s: %w", r.workload, err)
		}
	} else {
		runLoad(callers, window, max(1, int(r.measure/window)))
	}
	cpuShare := (userCPU() - cpu0) / time.Since(wall0).Seconds()
	after := snapshotCounters(w)

	m := &measured{metrics: make(map[string]float64)}
	multi := 0
	if d, ok := w.(deployed); ok {
		multi = sweepIncarnations(d.system(), callers)
	}
	tot := totalsOf(callers, window)
	if tot.firstErr != nil {
		m.violations = append(m.violations, tot.firstErr.Error())
	}
	m.attempted, m.failed = tot.attempted, tot.failed
	m.samples, m.rates, m.windowSecs = tot.samples, tot.rates, window.Seconds()
	for _, h := range tot.hists {
		m.p50s = append(m.p50s, h.quantile(0.50)/1e3)
		m.p99s = append(m.p99s, h.quantile(0.99)/1e3)
	}
	m.digest = streamDigest(r.seed, r.callers, w.mix(), len(callers[0].objs), 4096)

	// Memory: what this process still holds once the garbage of the run
	// is collected (the system under test is still up), plus the
	// children's peaks. The peak of this process would follow GC timing,
	// not the program. Two collections: sync.Pool contents (buf, wire)
	// survive the first in the pools' victim caches.
	runtime.GC()
	runtime.GC()
	debug.FreeOSMemory()
	rssKiB := procStatusKiB(os.Getpid(), "VmRSS")
	verified := float64(tot.attempted - tot.failed)
	e := m.metrics
	// Each timing is its least disturbed repetition: the quickest
	// set-up, the best window. On a small shared machine interference
	// lasts for seconds to tens of seconds and only ever subtracts, so
	// a run's best window repeats where its median window does not (see
	// README, Run-to-run spread).
	e["setup_s"] = quantileOf(setups, 0)
	e["ops_per_s"] = quantileOf(tot.rates, 1)
	e["op_p50_us"] = quantileOf(m.p50s, 0)
	e["op_p99_us"] = quantileOf(m.p99s, 0)
	e["payload_mb_per_s"] = e["ops_per_s"] * float64(tot.payload) / verified / 1e6
	e["rss_mb"] = float64(rssKiB) / 1024
	e["fail_share"] = float64(tot.failed) / float64(max(tot.attempted, 1))
	e["multi_incarnation"] = float64(multi)
	e["acked_lost"] = 0
	if multi > 0 {
		m.violations = append(m.violations, fmt.Sprintf("%d objects do not have exactly one incarnation", multi))
	}
	e["gen.overhead_ns"] = float64(tot.loopNs-tot.callNs) / verified
	e["gen.cpu_share"] = cpuShare
	layerCounters(e, before, after)
	m.violations = append(m.violations, w.finish(e)...)

	if r.trace {
		// Even windows were traced, odd ones were not (see step).
		var traced, plain []float64
		for i, rate := range tot.rates {
			if i%2 == 0 {
				traced = append(traced, rate)
			} else {
				plain = append(plain, rate)
			}
		}
		e["trace.overhead_share"] = 0
		if len(plain) > 0 {
			e["trace.overhead_share"] = 1 - median(traced)/median(plain)
		}
		groups := make(map[string][]span, len(recorders))
		var all [][]span
		for name, rec := range recorders {
			groups[name] = rec.spans()
			all = append(all, groups[name])
		}
		m.spans = summarize(all...)
		if err := os.MkdirAll(r.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(r.outDir, "trace-"+r.workload+".json"), r.workload, groups); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		// The system under test is torn down before the layer probes so
		// they measure an otherwise idle process.
		w.close()
		if err := r.probeLayers(e); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return m, nil
}

// newCallers builds every caller's private state: communication layer
// and partition from the workload, op stream from the seed, and a span
// recorder each when the run is traced.
func newCallers(w workload, r *run, epoch time.Time) ([]*callerState, map[string]*recorder, error) {
	callers := make([]*callerState, r.callers)
	recorders := make(map[string]*recorder)
	for c := range callers {
		cs := &callerState{id: c, epoch: epoch, hooks: w}
		if r.trace {
			cs.rec = newRecorder(epoch)
			recorders[fmt.Sprintf("caller%d", c)] = cs.rec
		}
		if err := w.attach(cs); err != nil {
			return nil, nil, fmt.Errorf("attach caller %d: %w", c, err)
		}
		cs.stream = newOpStream(r.seed, c, w.mix(), len(cs.objs))
		cs.expect = make([]uint64, len(cs.objs))
		callers[c] = cs
	}
	return callers, recorders, nil
}

// sweepIncarnations calls every object once more (re-activating any
// the last deactivate left inert, and checking its count) and returns
// how many objects do not run as exactly one incarnation.
func sweepIncarnations(s *sim.Sim, callers []*callerState) int {
	multi := 0
	for _, cs := range callers {
		for i, l := range cs.objs {
			cs.attempted++
			res, err := cs.caller.Call(l, "Work")
			if err == nil {
				_, err = verifyWork(cs, op{obj: i}, res)
			}
			if err != nil {
				cs.failed++
				if cs.firstErr == nil {
					cs.firstErr = fmt.Errorf("final sweep: %w", err)
				}
			}
			if s.Sys.CountIncarnations(l) != 1 {
				multi++
			}
		}
	}
	return multi
}

// userCPU is this process's user CPU time so far, in seconds.
func userCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6
}

// procStatusKiB reads one kB-valued field (VmRSS, VmHWM) of a process's
// /proc status.
func procStatusKiB(pid int, field string) uint64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kib uint64
			fmt.Sscanf(rest, "%d", &kib)
			return kib
		}
	}
	return 0
}
