package sim

import (
	"context"
	"slices"
	"testing"
)

// TestRebalancerLevels: from every object of a 3-host jurisdiction on
// one host, rebalancing rounds run until one moves nothing. By then the
// hosts differ by at most one resident, the rounds moved exactly the
// skew's excess (no object twice), and each object has one incarnation.
// With no load reporting, a host's score is its resident count.
func TestRebalancerLevels(t *testing.T) {
	s := smallSim(t, Config{HostsPerJurisdiction: 3, ObjectsPerClass: 18, Clients: 1})
	if err := s.SkewPlacement(0, 0); err != nil {
		t.Fatal(err)
	}
	before, err := s.PlacementCounts(0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := s.NewRebalancer(0)
	if err != nil {
		t.Fatal(err)
	}
	rb.SustainRounds = 1
	moves, rounds := 0, 0
	for ; rounds < 10; rounds++ {
		n, err := rb.RoundNow(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", rounds+1, err)
		}
		if n == 0 {
			break
		}
		moves += n
	}
	after, err := s.PlacementCounts(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v -> %v: %d moves in %d rounds", before, after, moves, rounds)
	total := before[0] + before[1] + before[2]
	if before[0] != total {
		t.Fatalf("skewed placement %v", before)
	}
	if spread := slices.Max(after) - slices.Min(after); spread > 1 {
		t.Errorf("placement %v after %d rounds: spread %d, want <= 1", after, rounds, spread)
	}
	if excess := total - (total+2)/3; moves != excess {
		t.Errorf("%d moves, want the skew's excess %d", moves, excess)
	}
	for _, l := range s.Flat {
		if n := s.Incarnations(l); n != 1 {
			t.Errorf("%v has %d incarnations", l, n)
		}
	}
	if err := s.Sys.Jurisdictions[0].MagistrateImpl().CheckResidentCounts(); err != nil {
		t.Error(err)
	}
}
