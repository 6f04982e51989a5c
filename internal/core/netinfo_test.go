package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/class"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestTCPSystemWithJoinedHost boots a whole system over real TCP,
// writes its contact sheet, attaches "another process" through it,
// contributes a host, and runs objects end to end. This is the
// multi-process deployment path exercised in-process.
func TestTCPSystemWithJoinedHost(t *testing.T) {
	impls := implreg.NewRegistry()
	impls.MustRegister("counter", counterFactory)
	sys, err := Boot(Options{
		Transport:   &transport.TCP{},
		Impls:       impls,
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	infoPath := filepath.Join(t.TempDir(), "legion.json")
	if err := sys.WriteNetInfo(infoPath); err != nil {
		t.Fatal(err)
	}
	ni, err := LoadNetInfo(infoPath)
	if err != nil {
		t.Fatal(err)
	}
	if ni.LegionClass == "" || len(ni.Leaves) != 1 || len(ni.Magistrates) != 1 {
		t.Fatalf("net info = %+v", ni)
	}

	// "Another process": attach via the contact sheet only.
	remote, err := Attach(ni)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	remoteImpls := implreg.NewRegistry()
	remoteImpls.MustRegister("counter", counterFactory)
	joined, err := remote.JoinHost(100, remoteImpls, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The joined host is announced: LegionHost now counts 2 instances.
	boot := sys.BootClient()
	info, err := class.Info.Call(context.Background(), boot.To(loid.LegionHost))
	if err != nil {
		t.Fatal(err)
	}
	if info.Instances != 2 {
		t.Errorf("LegionHost instances = %d, want 2", info.Instances)
	}

	// Derive a class and create instances pinned to the joined host —
	// they run in the "remote process".
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, sys.Jurisdictions[0].Magistrate, joined.LOID)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Host.Running() != 1 {
		t.Errorf("joined host runs %d objects, want 1", joined.Host.Running())
	}

	// A client attached purely through the contact sheet reaches it.
	user, err := remote.NewClient(loid.NewNoKey(300, 55))
	if err != nil {
		t.Fatal(err)
	}
	res, err := user.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("remote call: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 1 {
		t.Errorf("Inc = %d", v)
	}
	if remote.Reg.Counter("net/tcp_dials").Value() == 0 {
		t.Error("net/tcp_dials = 0 in the attached process; its calls never crossed a socket")
	}
}

// attach joins "another process" to sys through its contact sheet
// alone; the Remote is closed at cleanup.
func attach(t *testing.T, sys *System) *Remote {
	t.Helper()
	ni, err := sys.NetInfo()
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Attach(ni)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	return remote
}

// incAll calls Inc once on every object through c.
func incAll(t *testing.T, c *rt.Caller, objs []loid.LOID) {
	t.Helper()
	for _, o := range objs {
		res, err := c.Call(o, "Inc")
		if err == nil {
			err = res.Err()
		}
		if err != nil {
			t.Fatalf("Inc on %v: %v", o, err)
		}
	}
}

// TestSameProcessTCPDialsNothing: a system booted over one TCP value is
// one process, so its own objects call each other in memory. Boot, a
// Derive, eight Creates and calls on them dial nothing. A Remote
// attached on a second value is another process: it dials the system,
// the system dials back to it, and further local work still dials
// nothing.
func TestSameProcessTCPDialsNothing(t *testing.T) {
	reg := metrics.NewRegistry()
	sys := bootSys(t, Options{
		Transport:   &transport.TCP{Registry: reg},
		Registry:    reg,
		CallTimeout: 10 * time.Second,
	})
	dials := reg.Counter("net/tcp_dials")
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sys.NewClient(loid.NewNoKey(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]loid.LOID, 8)
	for i := range objs {
		if objs[i], _, err = cl.Create(nil, loid.Nil, loid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	incAll(t, user, objs)
	if n := dials.Value(); n != 0 {
		t.Fatalf("net/tcp_dials = %d inside one TCP value, want 0", n)
	}

	remote := attach(t, sys)
	rc, err := remote.NewClient(loid.NewNoKey(300, 2))
	if err != nil {
		t.Fatal(err)
	}
	incAll(t, rc, objs)
	if remote.Reg.Counter("net/tcp_dials").Value() == 0 {
		t.Error("the attached process reached the system without a dial")
	}
	across := dials.Value()
	if across == 0 {
		t.Error("the system answered the attached process without a dial")
	}
	more, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	incAll(t, user, append(objs, more))
	if n := dials.Value(); n != across {
		t.Errorf("net/tcp_dials went %d -> %d on work inside the system", across, n)
	}
}

// TestPlacementSkipsHostsWithoutImpl: a host joined from another process
// carries only its own code — not legion.class, just as `legiond -mode
// host` registers. Placement still picks it for class objects whenever
// it has the fewest residents, so a start it refuses must move on to a
// host that can run the object: every Derive succeeds.
func TestPlacementSkipsHostsWithoutImpl(t *testing.T) {
	sys := bootSys(t, Options{Transport: &transport.TCP{}, CallTimeout: 10 * time.Second})
	remoteImpls := implreg.NewRegistry()
	remoteImpls.MustRegister("counter", counterFactory)
	joined, err := attach(t, sys).JoinHost(100, remoteImpls, 0)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sys.NewClient(loid.NewNoKey(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		cl, _, err := sys.DeriveClass(fmt.Sprintf("Counter%d", i), "counter", counterInterface(), 0)
		if err != nil {
			t.Fatalf("Derive %d of 4: %v", i+1, err)
		}
		obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			t.Fatalf("Create on class %d: %v", i+1, err)
		}
		incAll(t, user, []loid.LOID{obj})
	}
	if n := sys.Jurisdictions[0].HostImpls()[0].Running(); n < 4 {
		t.Errorf("the core's host runs %d objects, want the 4 class objects at least", n)
	}
	if n := joined.Host.Running(); n > 4 {
		t.Errorf("the joined host runs %d objects; only the 4 counters can run there", n)
	}
}

func TestNetInfoRejectsMemSystems(t *testing.T) {
	sys := bootSys(t, Options{})
	if _, err := sys.NetInfo(); err == nil {
		t.Error("NetInfo succeeded for mem transport")
	}
}

func TestLoadNetInfoErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadNetInfo(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	writeFile(t, bad, "{not json")
	if _, err := LoadNetInfo(bad); err == nil {
		t.Error("malformed json accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	writeFile(t, empty, "{}")
	if _, err := LoadNetInfo(empty); err == nil {
		t.Error("incomplete info accepted")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
