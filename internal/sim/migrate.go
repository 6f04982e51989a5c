package sim

import (
	"context"
	"fmt"

	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/rt"
	"repro/internal/sched"
)

// Live-migration helpers: drive MigrateObject on a jurisdiction's
// Magistrate, attach a rebalancer, and measure what the experiments
// assert — placement spread and the exactly-once incarnation
// invariant.

// MagClient returns a typed magistrate client for jurisdiction j,
// backed by the sim's boot caller.
func (s *Sim) MagClient(j int) (rt.Ref, error) {
	if j >= len(s.Sys.Jurisdictions) {
		return rt.Ref{}, fmt.Errorf("sim: no jurisdiction %d", j)
	}
	return s.Sys.BootClient().To(s.Sys.Jurisdictions[j].Magistrate), nil
}

// MigrateObject live-migrates l to host h of jurisdiction j. The call
// returns when the binding has republished and the source holds a
// forwarding tombstone; concurrent callers never observe a failure.
func (s *Sim) MigrateObject(ctx context.Context, l loid.LOID, j, h int) error {
	mc, err := s.MagClient(j)
	if err != nil {
		return err
	}
	jur := s.Sys.Jurisdictions[j]
	if h >= len(jur.Hosts) {
		return fmt.Errorf("sim: jurisdiction %d has no host %d", j, h)
	}
	_, err = magistrate.MigrateObject.Call(ctx, mc, l, jur.Hosts[h])
	return err
}

// NewRebalancer builds a rebalancer watching jurisdiction j. The
// caller tunes and starts it.
func (s *Sim) NewRebalancer(j int) (*sched.Rebalancer, error) {
	mc, err := s.MagClient(j)
	if err != nil {
		return nil, err
	}
	rb := sched.NewRebalancer(mc, s.Reg)
	rb.SetRecorder(s.Plane.Recorder())
	return rb, nil
}

// PlacementCounts returns, per host index of jurisdiction j, how many
// active objects the Magistrate places there — the spread the
// rebalancer is judged on.
func (s *Sim) PlacementCounts(j int) ([]int, error) {
	if j >= len(s.Sys.Jurisdictions) {
		return nil, fmt.Errorf("sim: no jurisdiction %d", j)
	}
	jur := s.Sys.Jurisdictions[j]
	counts := make([]int, len(jur.Hosts))
	for _, p := range jur.MagistrateImpl().Placements() {
		if !p.Active {
			continue
		}
		for i, hl := range jur.Hosts {
			if hl.SameObject(p.Host) {
				counts[i]++
				break
			}
		}
	}
	return counts, nil
}

// Incarnations counts the live copies of l across every node in the
// deployment. 1 is healthy; 0 means inert (or lost); 2+ is a
// split-brain bug.
func (s *Sim) Incarnations(l loid.LOID) int {
	return s.Sys.CountIncarnations(l)
}

// SkewPlacement deactivates every object of jurisdiction j and
// reactivates all of them pinned (via the host hint) onto host h —
// the worst-case starting point for a rebalancing experiment.
func (s *Sim) SkewPlacement(j, h int) error {
	mc, err := s.MagClient(j)
	if err != nil {
		return err
	}
	jur := s.Sys.Jurisdictions[j]
	if h >= len(jur.Hosts) {
		return fmt.Errorf("sim: jurisdiction %d has no host %d", j, h)
	}
	hint := jur.Hosts[h]
	for _, p := range jur.MagistrateImpl().Placements() {
		if p.Active && p.Host.SameObject(hint) {
			continue
		}
		if p.Active {
			if _, err := magistrate.Deactivate.Call(context.Background(), mc, p.Object); err != nil {
				return fmt.Errorf("sim: skew deactivate %v: %w", p.Object, err)
			}
		}
		if _, err := magistrate.Activate.Call(context.Background(), mc, p.Object, hint); err != nil {
			return fmt.Errorf("sim: skew activate %v on %v: %w", p.Object, hint, err)
		}
	}
	return nil
}
