// Chaos: crash/restart churn for simulated deployments. A "crash"
// models a machine losing power — its network endpoint goes silent
// (frames vanish without errors, §4.3's partial-failure reality) and
// every resident object's volatile state is gone. Recovery follows the
// paper's own machinery: once the Magistrate learns of the failure,
// ordinary stale-binding refresh (§4.1.4) re-activates the lost
// objects on surviving hosts from their persistent representations.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
)

// hostSite resolves the j-th jurisdiction's h-th host to its pieces.
func (s *Sim) hostSite(j, h int) (loid.LOID, *host.Host, *rt.Node, error) {
	if j >= len(s.Sys.Jurisdictions) {
		return loid.Nil, nil, nil, fmt.Errorf("sim: no jurisdiction %d", j)
	}
	jur := s.Sys.Jurisdictions[j]
	if h >= len(jur.Hosts) {
		return loid.Nil, nil, nil, fmt.Errorf("sim: jurisdiction %d has no host %d", j, h)
	}
	hl := jur.Hosts[h]
	o, ok := s.Sys.FindObject(hl)
	if !ok {
		return loid.Nil, nil, nil, fmt.Errorf("sim: host object %v not found", hl)
	}
	hobj, ok := o.Impl().(*host.Host)
	if !ok {
		return loid.Nil, nil, nil, fmt.Errorf("sim: %v is not a Host", hl)
	}
	return hl, hobj, o.Node(), nil
}

// HostElement returns the network element of a host's node — the key
// the health layer tracks.
func (s *Sim) HostElement(j, h int) (oa.Element, error) {
	_, _, node, err := s.hostSite(j, h)
	if err != nil {
		return oa.Element{}, err
	}
	return node.Element(), nil
}

// CrashHost power-fails a host: its endpoint stops sending and
// receiving (silently — senders learn nothing until their timers
// fire), and every resident object dies without saving state. Nobody
// is notified: failure DETECTION is a separate concern (the health
// layer's, or the reboot reconcile in RestartHost). Returns the LOIDs
// that were lost.
func (s *Sim) CrashHost(j, h int) ([]loid.LOID, error) {
	hl, hobj, node, err := s.hostSite(j, h)
	if err != nil {
		return nil, err
	}
	id, ok := oa.MemID(node.Element())
	if !ok || s.Sys.Fabric == nil {
		return nil, fmt.Errorf("sim: host %v is not on a mem fabric", hl)
	}
	s.Sys.Fabric.Crash(id)
	return hobj.CrashResidents(), nil
}

// CrashHostAndDetect power-fails a host AND immediately reports the
// failure to the jurisdiction's Magistrate — a crash observed by an
// ideal failure detector. The magistrate flips the lost residents inert
// (each recovering its newest checkpoint, when checkpointing is on) and
// eagerly reactivates them on the surviving hosts; callers racing ahead
// of the reactivation heal through ordinary stale-binding refresh. No
// HostRecovered is needed for the population to be fully reachable
// again. Returns the LOIDs that were lost.
func (s *Sim) CrashHostAndDetect(j, h int) ([]loid.LOID, error) {
	lost, err := s.CrashHost(j, h)
	if err != nil {
		return nil, err
	}
	s.Sys.Jurisdictions[j].MagistrateImpl().HostFailed(s.Sys.Jurisdictions[j].Hosts[h])
	return lost, nil
}

// CheckpointNow forces one synchronous checkpoint round on every host.
func (s *Sim) CheckpointNow() (int, error) {
	return s.Sys.CheckpointNow()
}

// RestartHost reboots a crashed host. The machine comes back with its
// host daemon but none of the objects it was running; re-registration
// reconciles the Magistrate's view — anything it still believed active
// here is flipped inert (re-activatable elsewhere), then the host
// rejoins the jurisdiction's placement pool.
func (s *Sim) RestartHost(j, h int) error {
	hl, _, node, err := s.hostSite(j, h)
	if err != nil {
		return err
	}
	id, ok := oa.MemID(node.Element())
	if !ok || s.Sys.Fabric == nil {
		return fmt.Errorf("sim: host %v is not on a mem fabric", hl)
	}
	s.Sys.Fabric.Restart(id)
	mag := s.Sys.Jurisdictions[j].MagistrateImpl()
	mag.HostFailed(hl)
	mag.HostRecovered(hl, node.Address())
	return nil
}

// EnableHealth installs one shared health tracker across every client
// — failure evidence observed by one client immediately benefits the
// others (cooperative detection). The plane's breakers table reads it.
func (s *Sim) EnableHealth(cfg health.Config) *health.Tracker {
	tr := health.NewTracker(cfg, s.Reg)
	for _, c := range s.Clients {
		c.SetHealth(tr)
	}
	s.Plane.SetHealth(tr)
	return tr
}

// StartHealthDetector closes the detection loop: when the shared
// tracker's breaker for a host's endpoint opens, the jurisdiction's
// Magistrate is told the host failed, making its residents inert and
// therefore re-activatable by the very next binding refresh. This is
// the architectural payoff of per-destination health: the client-side
// breaker doubles as the system's failure detector. Returns a stop
// function.
func (s *Sim) StartHealthDetector(tr *health.Tracker, poll time.Duration) func() {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	type site struct {
		j  int
		hl loid.LOID
		el oa.Element
	}
	var sites []site
	for j, jur := range s.Sys.Jurisdictions {
		for h := range jur.Hosts {
			if el, err := s.HostElement(j, h); err == nil {
				sites = append(sites, site{j, jur.Hosts[h], el})
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fired := make(map[oa.Element]bool)
		tick := time.NewTicker(poll)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, st := range sites {
					open := tr.StateOf(st.el) == health.Open
					if open && !fired[st.el] {
						s.Sys.Jurisdictions[st.j].MagistrateImpl().HostFailed(st.hl)
						fired[st.el] = true
					} else if !open {
						fired[st.el] = false
					}
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }); wg.Wait() }
}

// StartChurn crash/restart-cycles the given hosts of jurisdiction j:
// every period one of them (round-robin) is crashed, stays down for
// downFor, then reboots. Pass only hosts whose loss is survivable —
// class objects hold the logical instance table as volatile state, so
// the host carrying them (placement slot 0) must be left alone;
// replicating class-object state (§4.3) is future work. The stop
// function waits for any in-flight crash to be restarted, so the
// deployment is whole again when it returns. The counter reports how
// many crashes were injected.
func (s *Sim) StartChurn(j int, hosts []int, period, downFor time.Duration, crashes *int) (func(), error) {
	if j >= len(s.Sys.Jurisdictions) {
		return nil, fmt.Errorf("sim: no jurisdiction %d", j)
	}
	total := len(s.Sys.Jurisdictions[j].Hosts)
	n := len(hosts)
	if n == 0 || n >= total {
		return nil, fmt.Errorf("sim: churn over %d of %d hosts; at least one must be spared", n, total)
	}
	if downFor >= period {
		downFor = period / 2
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(period - downFor):
			}
			if _, err := s.CrashHost(j, hosts[i]); err != nil {
				return
			}
			if crashes != nil {
				*crashes++
			}
			select {
			case <-stop:
			case <-time.After(downFor):
			}
			_ = s.RestartHost(j, hosts[i])
			select {
			case <-stop:
				return
			default:
			}
			i = (i + 1) % n
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(stop) }); wg.Wait() }, nil
}

// FaultLoad describes a deadline-bounded call stream for RunFaultCalls.
type FaultLoad struct {
	// Duration is how long the clients keep calling.
	Duration time.Duration
	// Deadline is each call's total budget (propagated end to end).
	Deadline time.Duration
	// Pace is the think time between a client's calls.
	Pace time.Duration
	// Retry is installed on every client for the run.
	Retry rt.RetryPolicy
}

// FaultResult aggregates a fault-injected run.
type FaultResult struct {
	Calls    int
	Failures int
	// P50 and P99 are latency percentiles over ALL calls — a failed
	// call's cost (usually the whole deadline) is part of the tail.
	P50, P99 time.Duration
}

// SuccessRate is the fraction of calls that completed OK.
func (r FaultResult) SuccessRate() float64 {
	if r.Calls == 0 {
		return 0
	}
	return float64(r.Calls-r.Failures) / float64(r.Calls)
}

// RunFaultCalls drives every client against random objects with
// per-call deadlines until the duration elapses, typically while
// StartChurn is killing hosts underneath it. The load is OPEN-LOOP:
// each client issues a call every Pace on a fixed schedule, so a call
// stalled on a dead host does not pause the arrival process —
// availability is accounted per offered call, the way a caller
// population (not a lone synchronous loop) would experience it.
//
// Latency is measured from each call's INTENDED send time on that
// fixed schedule, not from whenever the goroutine got around to
// sending. Measuring post-sleep send time is the classic coordinated
// omission bug: a stalled fabric silently stretches the inter-arrival
// gaps, the schedule self-throttles, and the reported p99 flatters
// exactly the outages the experiment exists to expose. Deadlines are
// anchored at the intended time too — a late send has already spent
// part of its budget queueing.
func (s *Sim) RunFaultCalls(w FaultLoad) FaultResult {
	if w.Pace <= 0 {
		w.Pace = 5 * time.Millisecond
	}
	clk := clock.Of(s.Config.Clock)
	var (
		mu        sync.Mutex
		failures  int
		latencies []time.Duration
	)
	var wg sync.WaitGroup
	start := clk.Now()
	until := start.Add(w.Duration)
	for ci, cli := range s.Clients {
		cli.Retry = w.Retry
		wg.Add(1)
		go func(ci int, cli *rt.Caller) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(workerSeed(s.Config.Seed, ci)))
			var inflight sync.WaitGroup
			for i := 1; ; i++ {
				intended := start.Add(time.Duration(i) * w.Pace)
				if !intended.Before(until) {
					break
				}
				if d := intended.Sub(clk.Now()); d > 0 {
					clk.Sleep(d)
				}
				target := s.Flat[rng.Intn(len(s.Flat))]
				inflight.Add(1)
				go func(target loid.LOID, intended time.Time) {
					defer inflight.Done()
					ctx, cancel := context.WithDeadline(context.Background(), intended.Add(w.Deadline))
					res, err := cli.CallCtx(ctx, target, "Work")
					cancel()
					lat := clk.Since(intended)
					failed := err != nil || res.Err() != nil
					mu.Lock()
					latencies = append(latencies, lat)
					if failed {
						failures++
					}
					mu.Unlock()
				}(target, intended)
			}
			inflight.Wait()
		}(ci, cli)
	}
	wg.Wait()
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	res := FaultResult{Calls: len(latencies), Failures: failures}
	if n := len(latencies); n > 0 {
		res.P50 = latencies[n/2]
		res.P99 = latencies[n*99/100]
	}
	return res
}
