package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
)

// Rebalancer is the placement policy loop the paper leaves to
// Scheduling Agents (§3.7): it watches a Jurisdiction's load table and
// live-migrates residents off sustained-hot hosts onto cold ones. It
// deliberately reacts slowly — a host must stay hot for SustainRounds
// consecutive samples before anything moves — because migration under
// load is cheap but not free, and chasing transient spikes would churn
// placement without improving it.
type Rebalancer struct {
	// Interval is the sampling cadence of the background loop.
	Interval time.Duration
	// HotFactor: a host is hot while its score exceeds HotFactor times
	// the jurisdiction mean.
	HotFactor float64
	// SustainRounds is how many consecutive hot samples trigger a move.
	SustainRounds int
	// MaxMovesPerRound bounds migrations per sample, so one round never
	// mass-evacuates a host whose load would have spread anyway.
	MaxMovesPerRound int
	// MinResidents: hosts running fewer objects are never rebalanced
	// (there is nothing useful to move).
	MinResidents uint64
	// Clock drives the sampling ticker (nil = wall). A virtual clock
	// lets tests step rebalance rounds without waiting out Interval.
	Clock clock.Clock

	mag rt.Ref
	reg *metrics.Registry
	rec *obs.Recorder // flight recorder for move decisions; nil when off

	mu        sync.Mutex
	hotRounds map[loid.LOID]int
	running   bool
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewRebalancer builds a rebalancer with default tuning, driving the
// Jurisdiction of the Magistrate mag. reg may be nil.
func NewRebalancer(mag rt.Ref, reg *metrics.Registry) *Rebalancer {
	if reg == nil {
		reg = metrics.Nop
	}
	return &Rebalancer{
		Interval:         time.Second,
		HotFactor:        1.5,
		SustainRounds:    2,
		MaxMovesPerRound: 1,
		MinResidents:     2,
		mag:              mag,
		reg:              reg,
		hotRounds:        make(map[loid.LOID]int),
	}
}

// SetRecorder points the rebalancer's decision log at a flight
// recorder (nil disables).
func (r *Rebalancer) SetRecorder(rec *obs.Recorder) {
	r.mu.Lock()
	r.rec = rec
	r.mu.Unlock()
}

func (r *Rebalancer) recorder() *obs.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// Start launches the background sampling loop. Idempotent while
// running.
func (r *Rebalancer) Start() {
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return
	}
	r.running = true
	r.stop = make(chan struct{})
	stop := r.stop
	r.mu.Unlock()
	// The ticker starts before Start returns, so time advanced on a
	// virtual clock right after Start counts towards the first tick.
	tick := clock.Of(r.Clock).NewTicker(r.Interval)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C():
				_, _ = r.RoundNow(context.Background())
			}
		}
	}()
}

// Stop halts the loop, waiting for an in-flight round.
func (r *Rebalancer) Stop() {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	close(r.stop)
	r.mu.Unlock()
	r.wg.Wait()
}

// RoundNow samples the jurisdiction once and performs at most
// MaxMovesPerRound migrations, returning how many objects moved. It is
// the loop body of Start, exported so tests and operator tooling can
// drive rounds deterministically.
func (r *Rebalancer) RoundNow(ctx context.Context) (int, error) {
	r.reg.Counter("reb/rounds").Inc()
	loads, err := magistrate.GetLoads.Call(ctx, r.mag)
	if err != nil {
		return 0, err
	}
	if len(loads) < 2 {
		return 0, nil // nowhere to move anything
	}
	mean := 0.0
	for _, hl := range loads {
		mean += hl.Load.Score()
	}
	mean /= float64(len(loads))

	// Update the sustained-hotness counters. A host that dips below the
	// threshold for even one round starts over.
	r.mu.Lock()
	var victims []magistrate.HostLoad
	for _, hl := range loads {
		s := hl.Load.Score()
		if s > r.HotFactor*mean && hl.Load.Residents >= r.MinResidents {
			r.hotRounds[hl.Host.ID()]++
			if r.hotRounds[hl.Host.ID()] >= r.SustainRounds {
				victims = append(victims, hl)
			}
		} else {
			delete(r.hotRounds, hl.Host.ID())
		}
	}
	r.mu.Unlock()
	if len(victims) == 0 {
		return 0, nil
	}
	// Hottest first; coldest hosts are the destinations.
	sort.Slice(victims, func(i, j int) bool {
		return victims[i].Load.Score() > victims[j].Load.Score()
	})
	cold := append([]magistrate.HostLoad(nil), loads...)
	sort.Slice(cold, func(i, j int) bool {
		return cold[i].Load.Score() < cold[j].Load.Score()
	})

	placements, err := magistrate.ListPlacements.Call(ctx, r.mag)
	if err != nil {
		return 0, err
	}
	byHost := make(map[loid.LOID][]magistrate.Placement)
	for _, p := range placements {
		if p.Active {
			byHost[p.Host.ID()] = append(byHost[p.Host.ID()], p)
		}
	}

	moves := 0
	for _, hot := range victims {
		if moves >= r.MaxMovesPerRound {
			break
		}
		residents := byHost[hot.Host.ID()]
		if len(residents) == 0 {
			continue
		}
		dest := loid.Nil
		for _, c := range cold {
			if !c.Host.SameObject(hot.Host) {
				dest = c.Host
				break
			}
		}
		if dest.IsNil() {
			continue
		}
		// Deterministic victim choice keeps rounds reproducible under
		// test; any resident sheds the same amount of count-load.
		sort.Slice(residents, func(i, j int) bool {
			a, b := residents[i].Object, residents[j].Object
			if a.ClassID != b.ClassID {
				return a.ClassID < b.ClassID
			}
			return a.ClassSpecific < b.ClassSpecific
		})
		obj := residents[0].Object
		if _, err := magistrate.MigrateObject.Call(ctx, r.mag, obj, dest); err != nil {
			r.reg.Counter("reb/move_failed").Inc()
			r.recorder().Record(obs.KindRebalance, obj.String(),
				fmt.Sprintf("move to %v FAILED: %v", dest, err), 0)
			return moves, fmt.Errorf("sched: rebalance %v -> %v: %w", obj, dest, err)
		}
		r.reg.Counter("reb/moves").Inc()
		r.recorder().Record(obs.KindRebalance, obj.String(),
			fmt.Sprintf("moved off hot %v to %v", hot.Host, dest), 0)
		moves++
		r.mu.Lock()
		delete(r.hotRounds, hot.Host.ID())
		r.mu.Unlock()
	}
	return moves, nil
}
