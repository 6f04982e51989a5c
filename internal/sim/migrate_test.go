package sim

import (
	"context"
	"slices"
	"testing"

	"repro/internal/host"
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

// TestRebalancerKeepsHostsAtMean: a host that reads hot by its traffic
// alone, at the mean resident count, sheds nothing. Three hosts run
// equal shares and one reports a high dispatch rate; the round moves 0.
func TestRebalancerKeepsHostsAtMean(t *testing.T) {
	s := smallSim(t, Config{HostsPerJurisdiction: 3, ObjectsPerClass: 17, Clients: 1})
	before, err := s.PlacementCounts(0)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(before) != slices.Min(before) {
		t.Fatalf("placement %v is not level", before)
	}
	mc, err := s.MagClient(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.ReportLoad.Call(context.Background(), mc, s.Sys.Jurisdictions[0].Hosts[0], host.Load{DispatchRate: 4000}, nil); err != nil {
		t.Fatal(err)
	}
	rb, err := s.NewRebalancer(0)
	if err != nil {
		t.Fatal(err)
	}
	rb.SustainRounds = 1
	loads, mean := s.Sys.Jurisdictions[0].MagistrateImpl().Loads(), 0.0
	for _, hl := range loads {
		mean += hl.Load.Score() / float64(len(loads))
	}
	if hot := loads[0].Load.Score(); hot <= rb.HotFactor*mean {
		t.Fatalf("host 0 scores %.1f against a mean of %.1f: not hot", hot, mean)
	}
	if n, err := rb.RoundNow(context.Background()); err != nil || n != 0 {
		t.Errorf("round over %v with host 0 hot by traffic moved %d, %v; want 0", before, n, err)
	}
	if after, _ := s.PlacementCounts(0); !slices.Equal(after, before) {
		t.Errorf("placement %v -> %v", before, after)
	}
}
