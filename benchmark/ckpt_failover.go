package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bindagent"
	"repro/internal/binding"
	"repro/internal/core"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/wire"
)

// ckpt_failover: the durability path. A segment-log jurisdiction store
// with fsync on, three hosts, and a population of 1 KiB objects go
// through cycles of: load over every object (all dirty) → quiesce →
// timed CheckpointNow → crash one host under an ideal failure detector
// → time until every resident of the dead host answers Work with
// exactly its acknowledged count plus one → restart the host. It is the
// only workload where persist (PutBatch, group-commit fsync, snapshot
// export, Get), the host checkpoint path and the Magistrate's bulk
// adoption dominate. It writes (ckpt_objs_per_s) and then reads back
// (recover_p50_ms) through one store, so a gain for one that costs the
// other shows. fsync latency here is the sandbox's, not a device's.
const (
	ckptObjects   = 1500
	ckptStateSize = 1 << 10
	ckptHosts     = 3
	ckptLoadPhase = 1500 * time.Millisecond
	ckptMinCycles = 3
	// quickLoadPhase is the load phase of the harness's own tests and of
	// the failover drill.
	quickLoadPhase = 300 * time.Millisecond
)

type ckptFailover struct {
	s      *sim.Sim
	dir    string
	agents []*bindagent.Client // the leaf agents, in client-assignment order
	// victims are the hosts that take turns crashing.
	victims []int
	// owner maps an object to (caller, index in its partition).
	owner map[loid.LOID][2]int

	crashes   uint64    // hosts failed so far
	ckptRates []float64 // objects acknowledged per second, per cycle
	recoverMs []float64 // crash → all residents correct, per cycle
	ackedLost atomic.Int64
}

func (w *ckptFailover) mix() opMix { return opMix{sequential: true} }

func (w *ckptFailover) setup(r *run) error {
	objects := ckptObjects
	if r.quick {
		objects = 150
	}
	var err error
	if w.dir, err = os.MkdirTemp(r.tmpRoot, "ckpt-"); err != nil {
		return err
	}
	impls := implreg.NewRegistry()
	impls.MustRegister(sim.WorkerImplName, sim.NewWorkerImpl)
	reg := metrics.NewRegistry()
	// sim.Config has no fsync switch, so the deployment is booted here
	// with sim.Build's recipe and handed to sim for its chaos helpers.
	sys, err := core.Boot(core.Options{
		Registry:             reg,
		Impls:                impls,
		HostsPerJurisdiction: ckptHosts,
		ClientCacheSize:      2 * objects, // bindings stay warm: this workload is about the store
		CallTimeout:          callTimeout,
		CheckpointEvery:      time.Hour, // rounds are forced by CheckpointNow
		DataDir:              w.dir,
		SyncOPRs:             true,
		StoreBackend:         "segment",
	})
	if err != nil {
		return err
	}
	w.s = &sim.Sim{Sys: sys, Reg: reg}
	cl, _, err := sys.DeriveClass("Worker0", sim.WorkerImplName, sim.WorkerInterface(), 0)
	if err != nil {
		return err
	}
	w.s.Classes = append(w.s.Classes, cl)
	if err := cl.SetDefaultMagistrates([]loid.LOID{sys.Jurisdictions[0].Magistrate}); err != nil {
		return err
	}
	boot := sys.BootClient()
	for i := 0; i < objects; i++ {
		l, b, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			return fmt.Errorf("create object %d: %w", i, err)
		}
		boot.AddBinding(b)
		// State is the 8-byte call count plus the pad.
		res, err := boot.Call(l, "Pad", wire.Uint64(ckptStateSize-8))
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			return fmt.Errorf("pad %v: %w", l, err)
		}
		w.s.Flat = append(w.s.Flat, l)
	}
	for c := 0; c < r.callers; c++ {
		cli, err := sys.NewClient(loid.New(300, uint64(c+1), loid.DeriveKey(fmt.Sprintf("client/%d", c))))
		if err != nil {
			return err
		}
		w.s.Clients = append(w.s.Clients, cli)
	}
	w.agents = w.agents[:0]
	for _, ag := range sys.Leaves {
		w.agents = append(w.agents, bindagent.NewClient(boot, ag.LOID, ag.Addr))
	}
	// The class object's instance table is volatile state and nothing
	// re-announces a moved class object to LegionClass, so its host is
	// left alone (as sim.StartChurn asks): the others take turns.
	w.victims = w.victims[:0]
	for _, p := range sys.Jurisdictions[0].MagistrateImpl().Placements() {
		if !p.Object.SameObject(cl.Class()) {
			continue
		}
		for h, hl := range sys.Jurisdictions[0].Hosts {
			if !hl.SameObject(p.Host) {
				w.victims = append(w.victims, h)
			}
		}
	}
	if len(w.victims) != ckptHosts-1 {
		return fmt.Errorf("class object %v is not placed on exactly one host", cl.Class())
	}
	w.owner = make(map[loid.LOID][2]int, objects)
	return nil
}

func (w *ckptFailover) attach(cs *callerState) error {
	cs.caller, cs.objs = w.s.Clients[cs.id], partition(w.s.Flat, cs.id, len(w.s.Clients))
	for i, l := range cs.objs {
		w.owner[l.ID()] = [2]int{cs.id, i}
	}
	return nil
}

func (w *ckptFailover) prepare(cs *callerState, o op) (loid.LOID, string, []byte, error) {
	return cs.objs[o.obj], "Work", nil, nil
}

func (w *ckptFailover) verify(cs *callerState, o op, res *rt.Result) (int, error) {
	return verifyWork(cs, o, res)
}

// drive runs cycles for about r.measure of wall time.
func (w *ckptFailover) drive(r *run, callers []*callerState, rec *recorder) (time.Duration, error) {
	loadPhase, minCycles := ckptLoadPhase, ckptMinCycles
	if r.quick {
		loadPhase, minCycles = quickLoadPhase, 1
	}
	start := time.Now()
	for cycle := 0; ; cycle++ {
		elapsed := time.Since(start)
		if cycle >= minCycles && elapsed+elapsed/time.Duration(2*cycle) > r.measure {
			return loadPhase, nil // the next cycle would overshoot by more than half its length
		}
		if err := w.cycle(cycle, loadPhase, callers, rec); err != nil {
			return 0, fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
}

func (w *ckptFailover) cycle(cycle int, loadPhase time.Duration, callers []*callerState, rec *recorder) error {
	id := uint64(cycle)
	rec.begin("ckpt.cycle", id)
	defer rec.end()

	rec.begin("gen.load", id)
	runLoad(callers, loadPhase, 1) // returns quiescent
	rec.end()

	rec.begin("host.checkpoint", id)
	t0 := time.Now()
	n, err := w.s.CheckpointNow()
	took := time.Since(t0)
	rec.end()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.ckptRates = append(w.ckptRates, float64(n)/took.Seconds())

	victim := w.victims[cycle%len(w.victims)]
	rec.begin("magistrate.host_failed", id)
	t1 := time.Now()
	lost, err := w.s.CrashHostAndDetect(0, victim)
	rec.end()
	if err != nil {
		return fmt.Errorf("crash host %d: %w", victim, err)
	}
	perCaller := make([][]int, len(callers))
	for _, l := range lost {
		if own, ok := w.owner[l.ID()]; ok {
			perCaller[own[0]] = append(perCaller[own[0]], own[1])
		}
	}

	rec.begin("gen.recover", id)
	var wg sync.WaitGroup
	for c, idxs := range perCaller {
		wg.Add(1)
		go func(cs *callerState, idxs []int) {
			defer wg.Done()
			for _, i := range idxs {
				w.recoverOne(cs, i)
			}
		}(callers[c], idxs)
	}
	wg.Wait()
	w.recoverMs = append(w.recoverMs, float64(time.Since(t1))/1e6)
	rec.end()

	rec.begin("magistrate.settle", id)
	w.settle()
	rec.end()

	rec.begin("host.restart", id)
	err = w.s.RestartHost(0, victim)
	// A rebooted host daemon comes back with no volatile state.
	// sim.RestartHost keeps the Host object and with it the
	// checkpointer's per-object dirty clocks from before the crash: a
	// resident that later returns here and reaches exactly its old
	// mutation count is taken for idle, skipped by the next round, and
	// restarts blank at the next crash. Restarting the checkpointer, as
	// a reboot would, forgets those clocks.
	j := w.s.Sys.Jurisdictions[0]
	h := j.HostImpls()[victim]
	h.StopCheckpointer()
	h.StartCheckpointer(j.Magistrate, j.MagistrateAddr, time.Hour)
	rec.end()
	return err
}

// settle waits for the Magistrate's background adoption to finish its
// tail (deleting the shipped OPRs), which outlives the moment every
// resident answers again. Closing the deployment under that tail makes
// SegmentStore.Delete dereference a closed segment; waiting here keeps
// the hazard out of the run. An adoption that found nothing left to
// claim counts nothing, hence the deadline.
func (w *ckptFailover) settle() {
	w.crashes++
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if w.s.Reg.CounterValue("mag/bulk_adoptions")+w.s.Reg.CounterValue("mag/bulk_adopt_failed") >= w.crashes {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// recoverOne brings one lost resident's binding up to date and calls
// it once. The ideal detector that told the Magistrate also knows the
// caller's binding names a dead host, so it hands that binding to the
// Binding Agent as stale (§3.6 GetBinding(binding)) instead of letting
// the caller find out by reply timeout: a crashed endpoint is silent,
// and the timer, not the recovery path, would be what is measured.
// Load was quiescent when the checkpoint was taken, so the count this
// caller last saw is exactly what was acknowledged: the reply must be
// that plus one. Less means an acknowledged checkpoint was lost.
func (w *ckptFailover) recoverOne(cs *callerState, i int) {
	cs.attempted++
	want := cs.expect[i] + 1
	var err error
	if stale, ok := cs.caller.Cache().Get(cs.objs[i]); ok {
		var fresh binding.Binding
		if fresh, err = w.agents[cs.id%len(w.agents)].Refresh(stale); err == nil {
			cs.caller.AddBinding(fresh)
		}
	}
	var res *rt.Result
	if err == nil {
		res, err = cs.caller.Call(cs.objs[i], "Work")
	}
	var got uint64
	if err == nil {
		got, err = workCount(res)
	}
	if err == nil && got != want {
		err = fmt.Errorf("Work on %v after failover returned %d, acknowledged %d", cs.objs[i], got, want-1)
		if got < want {
			w.ackedLost.Add(1)
		}
		cs.expect[i] = got
	} else if err == nil {
		cs.expect[i] = want
	}
	if err != nil {
		cs.failed++
		if cs.firstErr == nil {
			cs.firstErr = err
		}
	}
}

// finish reports the cycles: checkpoint rate, recovery time, what the
// deployment counted about adoption and group commit, and any
// acknowledged checkpoint whose state did not survive.
func (w *ckptFailover) finish(e map[string]float64) []string {
	e["ckpt_objs_per_s"] = median(w.ckptRates)
	e["recover_p50_ms"] = median(w.recoverMs)
	if h := w.s.Reg.HistogramSnapshot("mag/bulk_adopt"); h.Count > 0 {
		e["magistrate.adopt_ms"] = float64(h.Sum) / float64(h.Count) / 1e6
	}
	if commits := w.s.Reg.CounterValue("persist/group_commit"); commits > 0 {
		e["persist.recs_per_fsync"] = float64(w.s.Reg.CounterValue("persist/group_commit_recs")) / float64(commits)
	}
	if n := w.ackedLost.Load(); n > 0 {
		e["acked_lost"] = float64(n)
		return []string{fmt.Sprintf("%d acknowledged checkpoints lost their state in failover", n)}
	}
	return nil
}

func (w *ckptFailover) registry() *metrics.Registry { return w.s.Reg }

func (w *ckptFailover) clientCallers() []*rt.Caller { return w.s.Clients }

func (w *ckptFailover) system() *sim.Sim { return w.s }

func (w *ckptFailover) close() {
	if w.s != nil {
		w.s.Close()
		w.s = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}
