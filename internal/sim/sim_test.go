package sim

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/loid"
	"repro/internal/wire"
)

func smallSim(t *testing.T, cfg Config) *Sim {
	t.Helper()
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestBuildPopulation(t *testing.T) {
	s := smallSim(t, Config{
		Jurisdictions: 2, HostsPerJurisdiction: 2,
		Classes: 2, ObjectsPerClass: 3, Clients: 2,
	})
	if len(s.Classes) != 2 || len(s.Flat) != 6 || len(s.Clients) != 2 {
		t.Fatalf("population: %d classes, %d objects, %d clients",
			len(s.Classes), len(s.Flat), len(s.Clients))
	}
}

// placements maps every object of the deployment to the host running
// it.
func placements(s *Sim) map[loid.LOID]loid.LOID {
	on := make(map[loid.LOID]loid.LOID)
	for _, j := range s.Sys.Jurisdictions {
		for _, p := range j.MagistrateImpl().Placements() {
			on[p.Object.ID()] = p.Host
		}
	}
	return on
}

// TestBuildPlacesAsLoneCreates: Build makes each class's population in
// sets, and a set lands exactly where as many lone Creates would. On
// each jurisdictions × hosts shape, a deployment built in sets and one
// whose objects are made by sequential Creates hold the same LOIDs, in
// the same order, each on the same host.
func TestBuildPlacesAsLoneCreates(t *testing.T) {
	const n = 3*buildSet - 71 // whole sets and a partial one
	for _, shape := range []struct{ j, h int }{{2, 3}, {1, 4}, {3, 2}} {
		t.Run(fmt.Sprintf("%dx%d", shape.j, shape.h), func(t *testing.T) {
			sets := smallSim(t, Config{Jurisdictions: shape.j, HostsPerJurisdiction: shape.h, ObjectsPerClass: n})
			lone := smallSim(t, Config{Jurisdictions: shape.j, HostsPerJurisdiction: shape.h, ObjectsPerClass: 1})
			for len(lone.Flat) < n {
				m, err := class.Create.Call(context.Background(), lone.Classes[0].Ref, nil, loid.Nil, loid.Nil)
				if err != nil {
					t.Fatalf("lone Create %d: %v", len(lone.Flat), err)
				}
				lone.Flat = append(lone.Flat, m.LOID)
			}
			if !slices.Equal(sets.Flat, lone.Flat) {
				t.Fatal("sets and lone Creates made different LOIDs")
			}
			got, want := placements(sets), placements(lone)
			differ := 0
			for _, l := range lone.Flat {
				if !got[l.ID()].SameObject(want[l.ID()]) {
					differ++
				}
			}
			if differ != 0 || len(got) != len(want) {
				t.Errorf("%d of %d objects on another host than lone Creates put them (%d placements vs %d)",
					differ, n, len(got), len(want))
			}
		})
	}
}

// TestBuildRequestsDoNotGrowWithObjects: the class, Magistrate and Host
// objects serve as many requests to build 64 objects as 1 024 — one
// CreateSet, one Instantiate per Magistrate and one start call per host
// — where a Create per object cost them three requests each.
func TestBuildRequestsDoNotGrowWithObjects(t *testing.T) {
	served := func(n int) uint64 {
		s := smallSim(t, Config{Jurisdictions: 2, HostsPerJurisdiction: 2, ObjectsPerClass: n})
		classes, _ := s.ClassRequests(s.Classes)
		return classes + s.Reg.SumCounters("req/magistrate/") + s.Reg.SumCounters("req/host/")
	}
	if few, many := served(64), served(buildSet); few != many {
		t.Errorf("building 64 objects served %d requests, %d objects %d", few, buildSet, many)
	}
}

func TestRunLookupsSequential(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 4, Clients: 2})
	res, err := s.RunLookups(LookupWorkload{References: 40, Locality: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Errorf("failures = %d", res.Failures)
	}
	if res.References < 40 {
		t.Errorf("references = %d", res.References)
	}
	if res.ClientHitRate <= 0 {
		t.Errorf("hit rate = %v", res.ClientHitRate)
	}
	if res.MeanLatency <= 0 {
		t.Error("latency not measured")
	}
}

// TestClassRequestsCountClassObjectsOnly: ClassRequests counts the
// calls the class objects served, not the instances' own Work calls,
// which count under the same req/obj/ prefix. With every binding in
// the clients' caches no reference reaches a class object, so the count
// is zero; once a cache misses it is the class objects' counters.
func TestClassRequestsCountClassObjectsOnly(t *testing.T) {
	s := smallSim(t, Config{Classes: 2, ObjectsPerClass: 4, Clients: 1, ClientCacheSize: 64})
	lookups := LookupWorkload{References: 64, Locality: 0}
	if _, err := s.RunLookups(lookups); err != nil { // warm the caches
		t.Fatal(err)
	}
	s.ResetMetrics()
	res, err := s.RunLookups(lookups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 || res.ClassRequests != 0 {
		t.Errorf("warm run: %d class requests for %d references (%d failed), want 0",
			res.ClassRequests, res.References, res.Failures)
	}

	s.Clients[0].Cache().Clear()
	s.ResetMetrics()
	res, err = s.RunLookups(lookups)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, cl := range s.Classes {
		want += s.Reg.CounterValue("req/obj/" + cl.Class().ID().String())
	}
	if res.ClassRequests != want || want >= uint64(res.References) {
		t.Errorf("cold run: ClassRequests = %d, class objects served %d, references %d",
			res.ClassRequests, want, res.References)
	}
}

func TestRunLookupsConcurrent(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 4, Clients: 4})
	res, err := s.RunLookups(LookupWorkload{References: 80, Locality: 0.5, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Errorf("failures = %d", res.Failures)
	}
}

func TestCacheSizeAffectsAgentTraffic(t *testing.T) {
	// E2's mechanism in miniature: tiny client caches push misses to
	// the agents; large caches absorb them.
	run := func(cacheSize int) LookupResult {
		s := smallSim(t, Config{
			Classes: 1, ObjectsPerClass: 16, Clients: 2,
			ClientCacheSize: cacheSize,
		})
		// Warm up, then measure.
		s.RunLookups(LookupWorkload{References: 64, Locality: 0})
		s.ResetMetrics()
		res, err := s.RunLookups(LookupWorkload{References: 64, Locality: 0})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(2)
	large := run(64)
	if small.AgentRequests <= large.AgentRequests {
		t.Errorf("agent traffic: small-cache=%d large-cache=%d, want small > large",
			small.AgentRequests, large.AgentRequests)
	}
	if large.ClientHitRate <= small.ClientHitRate {
		t.Errorf("hit rates: small=%v large=%v", small.ClientHitRate, large.ClientHitRate)
	}
}

func TestRunChurn(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
	res, err := s.RunChurn(0, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Creates != 5 || res.Deletes != 5 || res.Failures != 0 {
		t.Errorf("churn = %+v", res)
	}
	if res.CreatesPerSec <= 0 {
		t.Error("throughput not measured")
	}
	if _, err := s.RunChurn(9, 1, false); err == nil {
		t.Error("bad class index accepted")
	}
}

func TestMigrateRandomDeactivate(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 2, Clients: 1})
	target, err := s.MigrateRandom("deactivate")
	if err != nil {
		t.Fatal(err)
	}
	// The object heals on next use.
	cli := s.Clients[0]
	res, err := cli.Call(target, "Work")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after deactivate: %v %v", res, err)
	}
}

func TestMigrateRandomMove(t *testing.T) {
	s := smallSim(t, Config{Jurisdictions: 2, Classes: 1, ObjectsPerClass: 2, Clients: 1})
	target, err := s.MigrateRandom("move")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Clients[0].Call(target, "Work")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after move: %v %v", res, err)
	}
	if _, err := s.MigrateRandom("teleport"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestResetMetrics(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 2, Clients: 1})
	s.RunLookups(LookupWorkload{References: 4, Locality: 1})
	s.ResetMetrics()
	if v := s.Reg.SumCounters("req/"); v != 0 {
		t.Errorf("counters after reset = %d", v)
	}
	if hr := s.Clients[0].Cache().Stats(); hr.Hits != 0 {
		t.Errorf("client stats after reset = %+v", hr)
	}
}

func TestWorkerStatePersistsThroughLifecycle(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
	obj := s.Flat[0]
	cli := s.Clients[0]
	for i := 0; i < 3; i++ {
		cli.Call(obj, "Work")
	}
	if _, err := s.MigrateRandom("deactivate"); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Call(obj, "Work")
	if err != nil || res.Code != wire.OK {
		t.Fatal(err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 4 {
		t.Errorf("worker calls = %d, want 4 (state survived)", v)
	}
}

func TestLookupTimeoutConfig(t *testing.T) {
	s := smallSim(t, Config{Classes: 1, ObjectsPerClass: 1, Clients: 1, CallTimeout: 3 * time.Second})
	if s.Clients[0].Timeout != 3*time.Second {
		t.Errorf("client timeout = %v", s.Clients[0].Timeout)
	}
}

// TestVirtualClockDeployment boots the REAL fabric on a virtual
// clock: every node's reply timers, deadlines, binding-cache expiry,
// and the magistrates' binding TTLs read simulated time. Calls still
// complete — the mem transport is live goroutines — but no component
// consults the wall, so a binding stamped with a virtual-time expiry
// only lapses when the test advances the virtual clock.
func TestVirtualClockDeployment(t *testing.T) {
	v := clock.NewVirtual(time.Time{})
	s := smallSim(t, Config{
		Classes: 1, ObjectsPerClass: 4, Clients: 2,
		BindingTTL: time.Hour,
		Clock:      v,
	})
	warm := func() {
		res, err := s.RunLookups(LookupWorkload{References: 40, Locality: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("failures under virtual clock = %d", res.Failures)
		}
	}
	warm()
	warm()

	// The clients' binding caches must judge expiry on the node's
	// virtual clock: re-stamp a live binding with a virtual-time TTL,
	// confirm it survives while time is frozen, then advance past it.
	c := s.Clients[0]
	target := s.Flat[0]
	b, ok := c.Cache().Get(target)
	if !ok {
		t.Fatalf("no cached binding for %v after a warm run", target)
	}
	c.Cache().Add(binding.Until(b.LOID, b.Address, v.Now().Add(time.Hour)))
	if _, ok := c.Cache().Get(target); !ok {
		t.Fatal("TTL binding expired with virtual time frozen")
	}
	v.Advance(2 * time.Hour)
	if _, ok := c.Cache().Get(target); ok {
		t.Fatal("binding still valid after advancing the virtual clock past its expiry")
	}
	// And the fabric recovers: the next run re-resolves the expired
	// binding with time standing still at epoch+2h.
	warm()
}
