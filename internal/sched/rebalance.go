package sched

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
)

// Rebalancer is the placement policy the paper leaves to Scheduling
// Agents (§3.7): it watches a Jurisdiction's load table and asks the
// Magistrate to move residents off a sustained-hot host onto a cold one.
// It proposes and the Magistrate moves (§3.8): it never sees the
// placement table. It deliberately reacts slowly — a host must stay hot
// for SustainRounds consecutive samples before anything moves — because
// migration under load is cheap but not free, and chasing transient
// spikes would churn placement without improving it.
type Rebalancer struct {
	// HotFactor: a host is hot while its score exceeds HotFactor times
	// the jurisdiction mean.
	HotFactor float64
	// SustainRounds is how many consecutive hot samples trigger a move.
	SustainRounds int
	// MinResidents: hosts running fewer objects are never rebalanced
	// (there is nothing useful to move).
	MinResidents uint64

	mag rt.Ref
	reg *metrics.Registry
	rec *obs.Recorder // flight recorder for move decisions; nil when off

	mu        sync.Mutex
	hotRounds map[loid.LOID]int
}

// NewRebalancer builds a rebalancer with default tuning, driving the
// Jurisdiction of the Magistrate mag. reg may be nil.
func NewRebalancer(mag rt.Ref, reg *metrics.Registry) *Rebalancer {
	if reg == nil {
		reg = metrics.Nop
	}
	return &Rebalancer{
		HotFactor:     1.5,
		SustainRounds: 2,
		MinResidents:  2,
		mag:           mag,
		reg:           reg,
		hotRounds:     make(map[loid.LOID]int),
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

// RoundNow samples the jurisdiction once and, if a host has stayed hot
// for SustainRounds samples, asks the Magistrate to move residents from
// the hottest such host to the coldest other host, in one MoveResidents
// call. It returns how many objects moved. The count levels the two
// hosts towards the mean resident count m (rounded down):
// min(hot − m, m − cold) residents, so a round never takes a host below
// m; a host hot by its traffic alone, at or under m, sheds nothing. The
// caller runs the rounds.
func (r *Rebalancer) RoundNow(ctx context.Context) (int, error) {
	r.reg.Counter("reb/rounds").Inc()
	loads, err := magistrate.GetLoads.Call(ctx, r.mag)
	if err != nil {
		return 0, err
	}
	if len(loads) < 2 {
		return 0, nil // nowhere to move anything
	}
	mean, residents := 0.0, uint64(0)
	for _, hl := range loads {
		mean += hl.Load.Score()
		residents += hl.Load.Residents
	}
	mean /= float64(len(loads))

	// Update the sustained-hotness counters. A host that dips below the
	// threshold for even one round starts over.
	r.mu.Lock()
	var hot *magistrate.HostLoad
	for i, hl := range loads {
		s := hl.Load.Score()
		if s > r.HotFactor*mean && hl.Load.Residents >= r.MinResidents {
			r.hotRounds[hl.Host.ID()]++
			if r.hotRounds[hl.Host.ID()] >= r.SustainRounds && (hot == nil || s > hot.Load.Score()) {
				hot = &loads[i]
			}
		} else {
			delete(r.hotRounds, hl.Host.ID())
		}
	}
	r.mu.Unlock()
	if hot == nil {
		return 0, nil
	}
	var cold *magistrate.HostLoad
	for i, hl := range loads {
		if !hl.Host.SameObject(hot.Host) && (cold == nil || hl.Load.Score() < cold.Load.Score()) {
			cold = &loads[i]
		}
	}
	m := int64(residents) / int64(len(loads))
	n := min(int64(hot.Load.Residents)-m, m-int64(cold.Load.Residents))
	if n <= 0 {
		return 0, nil
	}

	moved, err := magistrate.MoveResidents.Call(ctx, r.mag, hot.Host, cold.Host, uint64(n))
	if err != nil {
		r.reg.Counter("reb/move_failed").Inc()
		r.recorder().Record(obs.KindRebalance, hot.Host.String(),
			fmt.Sprintf("move of %d to %v FAILED: %v", n, cold.Host, err), 0)
		return 0, fmt.Errorf("sched: rebalance %v -> %v: %w", hot.Host, cold.Host, err)
	}
	r.reg.Counter("reb/moves").Add(moved)
	r.recorder().Record(obs.KindRebalance, hot.Host.String(),
		fmt.Sprintf("moved %d off hot host to %v", moved, cold.Host), 0)
	if moved > 0 {
		r.mu.Lock()
		delete(r.hotRounds, hot.Host.ID())
		r.mu.Unlock()
	}
	return int(moved), nil
}
