package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/wire"
)

// checkAligned fails unless every jurisdiction's Hosts, HostAddrs and
// HostImpls() name the same hosts, index by index.
func checkAligned(t *testing.T, sys *System) {
	t.Helper()
	for ji, j := range sys.Jurisdictions {
		if len(j.HostAddrs) != len(j.Hosts) || len(j.HostImpls()) != len(j.Hosts) {
			t.Fatalf("jurisdiction %d: %d hosts, %d addresses, %d host objects",
				ji, len(j.Hosts), len(j.HostAddrs), len(j.HostImpls()))
		}
		for i, hl := range j.Hosts {
			o, ok := sys.FindObject(hl)
			if !ok || o.Impl() != j.HostImpls()[i] || !o.Node().Address().Equal(j.HostAddrs[i]) {
				t.Errorf("jurisdiction %d: host %d is %v, but its address or host object is another's", ji, i, hl)
			}
		}
	}
}

// TestAddJurisdictionAtRuntime grows the system after boot: a new
// Magistrate and hosts appear, announce themselves, and serve objects
// (§4.2.1: "New Host Objects and Magistrates will be added as the
// Legion system expands").
func TestAddJurisdictionAtRuntime(t *testing.T) {
	sys := bootSys(t, Options{})
	before := len(sys.Jurisdictions)

	j2, err := sys.AddJurisdiction(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Jurisdictions) != before+1 || len(j2.Hosts) != 2 {
		t.Fatalf("growth: %d jurisdictions, %d hosts", len(sys.Jurisdictions), len(j2.Hosts))
	}
	// Seq uniqueness: no host or magistrate LOID collides.
	seen := map[loid.LOID]bool{}
	for _, j := range sys.Jurisdictions {
		if seen[j.Magistrate.ID()] {
			t.Fatalf("duplicate magistrate %v", j.Magistrate)
		}
		seen[j.Magistrate.ID()] = true
		for _, h := range j.Hosts {
			if seen[h.ID()] {
				t.Fatalf("duplicate host %v", h)
			}
			seen[h.ID()] = true
		}
	}
	// The new jurisdiction is announced to the core classes.
	info, err := class.Info.Call(context.Background(), sys.BootClient().To(loid.LegionMagistrate))
	if err != nil || info.Instances != 2 {
		t.Errorf("LegionMagistrate instances = %d, %v", info.Instances, err)
	}
	// And it serves objects end to end.
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, j2.Magistrate, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
		t.Fatalf("call into grown jurisdiction: %v %v", res, err)
	}
}

// TestShareHostOverlappingJurisdictions places one host under two
// Magistrates (§2.2: jurisdictions are potentially non-disjoint).
func TestShareHostOverlappingJurisdictions(t *testing.T) {
	sys := bootSys(t, Options{Jurisdictions: 2, HostsPerJurisdiction: 1})
	j0, j1 := sys.Jurisdictions[0], sys.Jurisdictions[1]
	if err := sys.ShareHost(j0.Hosts[0], j0.HostAddrs[0], j1); err != nil {
		t.Fatal(err)
	}
	hosts, err := magistrate.NewClient(sys.BootClient(), j1.Magistrate).ListHosts()
	if err != nil || len(hosts) != 2 {
		t.Fatalf("shared jurisdiction hosts = %v, %v", hosts, err)
	}
	checkAligned(t, sys)
	// Both magistrates can activate objects on the shared host.
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	objA, _, err := cl.Create(nil, j0.Magistrate, j0.Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	objB, _, err := cl.Create(nil, j1.Magistrate, j0.Hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	for _, obj := range []loid.LOID{objA, objB} {
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("call on shared host: %v %v", res, err)
		}
	}
}

// TestSplitJurisdiction relieves a loaded magistrate: half the hosts
// and the chosen objects move to a fresh jurisdiction, and clients keep
// working through the usual stale-binding healing (§2.2).
func TestSplitJurisdiction(t *testing.T) {
	sys := bootSys(t, Options{HostsPerJurisdiction: 4})
	src := sys.Jurisdictions[0]
	cl, clsL, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var objs []loid.LOID
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	for i := 0; i < 4; i++ {
		obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, obj)
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatal(err)
		}
	}
	// Split: move the last two objects with the back half of the hosts.
	classOf := func(loid.LOID) loid.LOID { return clsL }
	dst, err := sys.SplitJurisdiction(src, objs[2:], classOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.Hosts) != 2 || len(dst.Hosts) != 2 {
		t.Fatalf("host split = %d/%d", len(src.Hosts), len(dst.Hosts))
	}
	checkAligned(t, sys)
	// Moved objects serve again (through dst), with state intact.
	for _, obj := range objs[2:] {
		res, err := user.Call(obj, "Inc")
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call after split: %v %v", res, err)
		}
		raw, _ := res.Result(0)
		if v, _ := wire.AsUint64(raw); v != 2 {
			t.Errorf("counter = %d after split, want 2", v)
		}
		if st, _ := magistrate.HasObject.Call(context.Background(), sys.BootClient().To(dst.Magistrate), obj); !st.Known {
			t.Errorf("dst magistrate does not know %v", obj)
		}
	}
	// Unmoved objects still work through src.
	for _, obj := range objs[:2] {
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("unmoved object: %v %v", res, err)
		}
	}
	// A single-host jurisdiction refuses to split.
	tiny, err := sys.AddJurisdiction(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SplitJurisdiction(tiny, nil, classOf); err == nil {
		t.Error("split of single-host jurisdiction succeeded")
	}
}

// TestAddedJurisdictionStartsLikeBoot: a jurisdiction added at run time
// is built by Boot's own path, so its hosts are listed, checkpoint to
// the new Magistrate, report their load to it, and fail over from
// their checkpoints (§4.2.1). The virtual clock only moves when the
// test advances it, so no loop fires on its own.
func TestAddedJurisdictionStartsLikeBoot(t *testing.T) {
	v := clock.NewVirtual(time.Time{})
	const loadEvery = time.Minute
	sys := bootSys(t, Options{Clock: v, CheckpointEvery: time.Hour, LoadReportEvery: loadEvery})
	j, err := sys.AddJurisdiction(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.HostImpls()) != 2 || len(j.Hosts) != 2 {
		t.Fatalf("added jurisdiction lists %d host objects for %d hosts, want 2 and 2", len(j.HostImpls()), len(j.Hosts))
	}
	checkAligned(t, sys)

	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, j.Magistrate, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sys.NewClient(loid.NewNoKey(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	incAll(t, user, []loid.LOID{obj, obj})
	if _, err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if n := j.StoredOPRs(); n != 1 {
		t.Fatalf("the added jurisdiction's store holds %d OPRs after CheckpointNow, want the counter's 1", n)
	}

	// One load-report tick: each new host reports to the new Magistrate.
	v.Advance(loadEvery)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		reported := 0
		for _, hl := range j.MagistrateImpl().Loads() {
			if hl.Age >= 0 {
				reported++
			}
		}
		if reported == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of 2 added hosts reported their load to the new Magistrate", reported)
		}
	}

	// Crash the counter's host and report it: the counter comes back on
	// the other host with its checkpointed count.
	var victim int
	for _, p := range j.MagistrateImpl().Placements() {
		if p.Object.SameObject(obj) {
			for i, hl := range j.Hosts {
				if hl.SameObject(p.Host) {
					victim = i
				}
			}
		}
	}
	o, _ := sys.FindObject(j.Hosts[victim])
	id, ok := oa.MemID(o.Node().Element())
	if !ok {
		t.Fatal("host is not on the mem fabric")
	}
	sys.Fabric.Crash(id)
	j.HostImpls()[victim].CrashResidents()
	j.MagistrateImpl().HostFailed(j.Hosts[victim])
	b, err := magistrate.NewClient(sys.BootClient(), j.Magistrate).Activate(obj, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Address.Equal(j.HostAddrs[1-victim]) {
		t.Fatalf("counter came back at %v, want the surviving host %v", b.Address, j.HostAddrs[1-victim])
	}
	user.AddBinding(b)
	res, err := user.Call(obj, "Get")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call after failover: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if n, _ := wire.AsUint64(raw); n != 2 {
		t.Errorf("counter = %d after failover, want its checkpointed 2", n)
	}
}
