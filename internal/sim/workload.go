package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/wire"
)

// workerSeed derives the RNG seed for worker ci of a run seeded with
// seed, by one splitmix64 round over the combined value (the same
// mixer rt.Caller uses for its jitter stream). Plain seed+ci is NOT
// enough: two sims with adjacent seeds — or a chaos restart reusing a
// worker index — would replay overlapping streams, correlating runs
// that must be independent.
func workerSeed(seed int64, ci int) int64 {
	s := uint64(seed)*0x9E3779B97F4A7C15 + uint64(ci)*0xBF58476D1CE4E5B9 + 0x9E3779B97F4A7C15
	s ^= s >> 30
	s *= 0xBF58476D1CE4E5B9
	s ^= s >> 27
	s *= 0x94D049BB133111EB
	s ^= s >> 31
	return int64(s)
}

// LookupWorkload describes a reference stream for RunLookups.
type LookupWorkload struct {
	// References is the total number of object references to issue.
	References int
	// Locality is the probability a reference targets the client's
	// home subset ("we assume that most accesses will be local",
	// §5.2): each client's home subset is HomeSize objects chosen from
	// the population.
	Locality float64
	// HomeSize is the size of each client's home subset (default 4).
	HomeSize int
	// Concurrent issues references from all clients in parallel.
	Concurrent bool
}

// LookupResult aggregates a lookup run.
type LookupResult struct {
	References int
	Failures   int
	Elapsed    time.Duration
	// ClientHitRate is the mean local binding-cache hit rate.
	ClientHitRate float64
	// AgentRequests is the total requests served by all Binding
	// Agents; LegionClassRequests and ClassRequests count requests to
	// the metaclass and to the deployment's class objects (Classes).
	AgentRequests       uint64
	LegionClassRequests uint64
	ClassRequests       uint64
	MagistrateRequests  uint64
	// MeanLatency is the mean per-call latency.
	MeanLatency time.Duration
}

// RunLookups drives the reference stream and reports per-component
// load. Callers usually ResetMetrics first.
func (s *Sim) RunLookups(w LookupWorkload) (LookupResult, error) {
	if w.HomeSize <= 0 {
		w.HomeSize = 4
	}
	if w.HomeSize > len(s.Flat) {
		w.HomeSize = len(s.Flat)
	}
	if len(s.Flat) == 0 {
		return LookupResult{}, fmt.Errorf("sim: no objects")
	}
	// Assign each client a home subset.
	homes := make([][]loid.LOID, len(s.Clients))
	for i := range s.Clients {
		start := s.Intn(len(s.Flat))
		home := make([]loid.LOID, 0, w.HomeSize)
		for k := 0; k < w.HomeSize; k++ {
			home = append(home, s.Flat[(start+k)%len(s.Flat)])
		}
		homes[i] = home
	}

	perClient := w.References / len(s.Clients)
	if perClient == 0 {
		perClient = 1
	}
	var (
		failures  int
		totalRefs int
		totalLat  time.Duration
		mu        sync.Mutex
	)
	start := time.Now()
	runOne := func(ci int, rng *rand.Rand) {
		cli := s.Clients[ci]
		home := homes[ci]
		var localFail, localRefs int
		var localLat time.Duration
		for r := 0; r < perClient; r++ {
			var target loid.LOID
			if rng.Float64() < w.Locality {
				target = home[rng.Intn(len(home))]
			} else {
				target = s.Flat[rng.Intn(len(s.Flat))]
			}
			t0 := time.Now()
			res, err := cli.Call(target, "Work")
			localLat += time.Since(t0)
			localRefs++
			if err != nil || res.Code != wire.OK {
				localFail++
			}
		}
		mu.Lock()
		failures += localFail
		totalRefs += localRefs
		totalLat += localLat
		mu.Unlock()
	}
	if w.Concurrent {
		var wg sync.WaitGroup
		for ci := range s.Clients {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				runOne(ci, rand.New(rand.NewSource(workerSeed(s.Config.Seed, ci))))
			}(ci)
		}
		wg.Wait()
	} else {
		for ci := range s.Clients {
			runOne(ci, rand.New(rand.NewSource(workerSeed(s.Config.Seed, ci))))
		}
	}
	elapsed := time.Since(start)

	var hitSum float64
	for _, c := range s.Clients {
		hitSum += c.Cache().Stats().HitRate()
	}
	total, _ := s.ClassRequests(s.Classes)
	res := LookupResult{
		References:          totalRefs,
		Failures:            failures,
		Elapsed:             elapsed,
		ClientHitRate:       hitSum / float64(len(s.Clients)),
		AgentRequests:       s.Reg.SumCounters("req/bindagent/"),
		LegionClassRequests: s.Reg.Counter("req/class/LegionClass").Value(),
		ClassRequests:       total,
		MagistrateRequests:  s.Reg.SumCounters("req/magistrate/"),
	}
	if totalRefs > 0 {
		res.MeanLatency = totalLat / time.Duration(totalRefs)
	}
	return res, nil
}

// ChurnResult reports a create/delete churn run.
type ChurnResult struct {
	Creates, Deletes, Failures int
	Elapsed                    time.Duration
	CreatesPerSec              float64
}

// RunChurn creates and deletes n objects on the given class, measuring
// creation throughput (E8).
func (s *Sim) RunChurn(classIdx, n int, deleteAfter bool) (ChurnResult, error) {
	if classIdx >= len(s.Classes) {
		return ChurnResult{}, fmt.Errorf("sim: class index %d out of range", classIdx)
	}
	cl := s.Classes[classIdx]
	var res ChurnResult
	start := time.Now()
	var created []loid.LOID
	for i := 0; i < n; i++ {
		l, _, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			res.Failures++
			continue
		}
		created = append(created, l)
		res.Creates++
	}
	if deleteAfter {
		for _, l := range created {
			if _, err := class.Delete.Call(context.Background(), cl.Ref, l); err != nil {
				res.Failures++
				continue
			}
			res.Deletes++
		}
	}
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.CreatesPerSec = float64(res.Creates) / res.Elapsed.Seconds()
	}
	return res, nil
}

// MigrateRandom deactivates (mode "deactivate") or moves (mode "move")
// one random object, returning which. Experiments inject churn with it
// while lookups run (E5).
func (s *Sim) MigrateRandom(mode string) (loid.LOID, error) {
	if len(s.Flat) == 0 {
		return loid.Nil, fmt.Errorf("sim: no objects")
	}
	target := s.Flat[s.Intn(len(s.Flat))]
	boot := s.Sys.BootClient()
	bg := context.Background()
	// Find the holding magistrate.
	for ji, j := range s.Sys.Jurisdictions {
		mc := boot.To(j.Magistrate)
		st, err := magistrate.HasObject.Call(bg, mc, target)
		if err != nil || !st.Known {
			continue
		}
		switch mode {
		case "deactivate":
			if !st.Active {
				return target, nil
			}
			_, err := magistrate.Deactivate.Call(bg, mc, target)
			return target, err
		case "move":
			dst := s.Sys.Jurisdictions[(ji+1)%len(s.Sys.Jurisdictions)]
			if dst.Magistrate.SameObject(j.Magistrate) {
				_, err := magistrate.Deactivate.Call(bg, mc, target)
				return target, err
			}
			if _, err := magistrate.Move.Call(bg, mc, target, dst.Magistrate); err != nil {
				return target, err
			}
			// The mover updates the class's view (§4.1.4).
			cl := s.classOf(target)
			if cl == nil {
				return target, fmt.Errorf("sim: no class for %v", target)
			}
			if _, err := class.SetCurrentMagistrates.Call(bg, cl.Ref, target, []loid.LOID{dst.Magistrate}); err != nil {
				return target, fmt.Errorf("sim: update class after move: %w", err)
			}
			_, err := class.NotifyDeactivated.Call(bg, cl.Ref, target)
			return target, err
		default:
			return loid.Nil, fmt.Errorf("sim: unknown migration mode %q", mode)
		}
	}
	return loid.Nil, fmt.Errorf("sim: no magistrate knows %v", target)
}

func (s *Sim) classOf(l loid.LOID) *class.Client {
	for i, objs := range s.Objects {
		for _, o := range objs {
			if o.SameObject(l) {
				return s.Classes[i]
			}
		}
	}
	return nil
}
