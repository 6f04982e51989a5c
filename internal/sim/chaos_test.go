package sim

import (
	"context"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/wire"
)

// workersOf filters a crash's lost LOIDs down to worker instances —
// hosts also run class objects, which answer a different interface.
func workersOf(s *Sim, lost []loid.LOID) []loid.LOID {
	var out []loid.LOID
	for _, l := range lost {
		for _, f := range s.Flat {
			if f.SameObject(l) {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// TestCrashRecoveryThroughMagistrate is the deterministic core of the
// chaos story: a host crash loses its residents, and once the
// Magistrate is told, plain stale-binding refresh re-activates them on
// a surviving host — no client-side intervention.
func TestCrashRecoveryThroughMagistrate(t *testing.T) {
	s, err := Build(Config{
		HostsPerJurisdiction: 2,
		ObjectsPerClass:      4,
		CallTimeout:          200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli := s.Clients[0]
	for _, l := range s.Flat {
		if res, err := cli.Call(l, "Work"); err != nil || res.Code != wire.OK {
			t.Fatalf("warm call to %v: %v %v", l, res, err)
		}
	}

	// Crash host 1, not host 0: placement slot 0 carries the class
	// object, whose volatile logical table is not (yet) crash-safe.
	allLost, err := s.CrashHost(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lost := workersOf(s, allLost)
	if len(lost) == 0 {
		t.Fatal("host 1 was running no workers; round-robin placement should have given it some")
	}
	// Calls to the lost objects fail while the magistrate is unaware —
	// refresh keeps returning the stale location.
	res, err := cli.Call(lost[0], "Work")
	if err == nil && res.Code == wire.OK {
		t.Fatal("call to crashed object succeeded with no recovery in play")
	}

	// Detection: tell the magistrate. Every lost object must come back
	// on the surviving host via the ordinary refresh path.
	s.Sys.Jurisdictions[0].MagistrateImpl().HostFailed(s.Sys.Jurisdictions[0].Hosts[1])
	for _, l := range lost {
		if res, err := cli.Call(l, "Work"); err != nil || res.Code != wire.OK {
			t.Fatalf("call to %v after HostFailed: %v %v", l, res, err)
		}
	}

	// Reboot the host; the whole population stays reachable.
	if err := s.RestartHost(0, 1); err != nil {
		t.Fatal(err)
	}
	for _, l := range s.Flat {
		if res, err := cli.Call(l, "Work"); err != nil || res.Code != wire.OK {
			t.Fatalf("call to %v after restart: %v %v", l, res, err)
		}
	}
}

// TestCrashRecoveryWithCheckpoints: with the checkpoint loop running, a
// DETECTED crash loses nothing that was checkpointed. Every lost worker
// is reachable again immediately — post-crash success returns to 100%
// with no HostRecovered and no manual intervention — and each continues
// from its pre-crash call count. The magistrate also reactivates the
// losses eagerly in the background, so even objects nobody calls are
// running again.
func TestCrashRecoveryWithCheckpoints(t *testing.T) {
	s, err := Build(Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      6,
		CallTimeout:          200 * time.Millisecond,
		CheckpointEvery:      time.Hour, // rounds are forced explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli := s.Clients[0]
	pre := make(map[loid.LOID]uint64)
	for _, l := range s.Flat {
		for i := 0; i < 3; i++ {
			res, err := cli.Call(l, "Work")
			if err != nil || res.Code != wire.OK {
				t.Fatalf("warm call to %v: %v %v", l, res, err)
			}
			raw, _ := res.Result(0)
			pre[l], _ = wire.AsUint64(raw)
		}
	}
	if n, err := s.CheckpointNow(); err != nil || n == 0 {
		t.Fatalf("CheckpointNow = %d, %v", n, err)
	}

	allLost, err := s.CrashHostAndDetect(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lost := workersOf(s, allLost)
	if len(lost) == 0 {
		t.Fatal("host 1 ran no workers")
	}
	// 100% of post-crash calls succeed, and none lost checkpointed state.
	for _, l := range s.Flat {
		res, err := cli.Call(l, "Work")
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call to %v after crash+detect: %v %v", l, res, err)
		}
		raw, _ := res.Result(0)
		if v, _ := wire.AsUint64(raw); v != pre[l]+1 {
			t.Errorf("%v: count = %d after recovery, want %d (state lost)", l, v, pre[l]+1)
		}
	}
	// The eager background recovery covered every lost object — either
	// through one snapshot-shipped bulk adoption or per-OPR reactivation.
	recovered := func() uint64 {
		return s.Reg.Counter("mag/reactivations").Value() +
			s.Reg.Counter("mag/bulk_adopted_objects").Value()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if recovered() >= uint64(len(allLost)) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("recovered objects = %d, want >= %d", recovered(), len(allLost))
}

// TestCrashMidCallRecovers: a caller already blocked on a dead host
// rides through failure detection — its retry loop refreshes into the
// reactivated object and the call completes with pre-crash state
// intact.
func TestCrashMidCallRecovers(t *testing.T) {
	s, err := Build(Config{
		HostsPerJurisdiction: 2,
		ObjectsPerClass:      4,
		CallTimeout:          150 * time.Millisecond,
		CheckpointEvery:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli := s.Clients[0]
	pre := make(map[loid.LOID]uint64)
	for _, l := range s.Flat {
		for i := 0; i < 2; i++ {
			res, err := cli.Call(l, "Work")
			if err != nil || res.Code != wire.OK {
				t.Fatalf("warm call: %v %v", res, err)
			}
			raw, _ := res.Result(0)
			pre[l.ID()], _ = wire.AsUint64(raw)
		}
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// Silent crash: nobody is told yet, so the in-flight call below
	// burns wave timeouts against the dead endpoint.
	allLost, err := s.CrashHost(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lost := workersOf(s, allLost)
	if len(lost) == 0 {
		t.Fatal("host 1 ran no workers")
	}
	cli.Retry = rt.RetryPolicy{MaxAttempts: 40, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
	var (
		val     uint64
		callErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		res, err := cli.CallCtx(ctx, lost[0], "Work")
		if err == nil {
			err = res.Err()
		}
		if err == nil {
			raw, _ := res.Result(0)
			val, _ = wire.AsUint64(raw)
		}
		callErr = err
	}()
	// Let the call start failing against the dead host, then deliver
	// the failure notice mid-flight.
	time.Sleep(50 * time.Millisecond)
	s.Sys.Jurisdictions[0].MagistrateImpl().HostFailed(s.Sys.Jurisdictions[0].Hosts[1])
	<-done
	if callErr != nil {
		t.Fatalf("in-flight call never recovered: %v", callErr)
	}
	if want := pre[lost[0].ID()] + 1; val != want {
		t.Errorf("mid-call recovery count = %d, want %d", val, want)
	}
}

// TestHealthDetectorClosesLoop: with the shared tracker installed and
// the detector running, nobody has to tell the Magistrate anything —
// client-side breaker evidence does it.
func TestHealthDetectorClosesLoop(t *testing.T) {
	s, err := Build(Config{
		HostsPerJurisdiction: 2,
		ObjectsPerClass:      4,
		Clients:              2,
		CallTimeout:          100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := s.EnableHealth(health.Config{FailureThreshold: 2, OpenDuration: 250 * time.Millisecond})
	stopDet := s.StartHealthDetector(tr, 20*time.Millisecond)
	defer stopDet()
	cli := s.Clients[0]
	for _, l := range s.Flat {
		if res, err := cli.Call(l, "Work"); err != nil || res.Code != wire.OK {
			t.Fatalf("warm call: %v %v", res, err)
		}
	}

	allLost, err := s.CrashHost(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lost := workersOf(s, allLost)
	if len(lost) == 0 {
		t.Fatal("host 1 ran no workers")
	}
	// Burn a few calls to feed the breaker (each pays one wave
	// timeout), then the detector flips the records and calls recover.
	deadlineAt := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadlineAt) {
		if res, err := cli.Call(lost[0], "Work"); err == nil && res.Code == wire.OK {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("breaker-driven detection never recovered the lost object")
	}
	for _, l := range lost {
		if res, err := cli.Call(l, "Work"); err != nil || res.Code != wire.OK {
			t.Fatalf("call to %v after detection: %v %v", l, res, err)
		}
	}
	if err := s.RestartHost(0, 1); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointClockDiesWithResident: what a host remembers about a
// resident's last checkpoint belongs to that incarnation. An object
// that is checkpointed, lost in a crash, adopted elsewhere and then
// returns to the first host with exactly its old mutation count is
// still dirty there: the round must save it, or the next crash brings
// back the older state and acknowledged calls are lost.
func TestCheckpointClockDiesWithResident(t *testing.T) {
	s, err := Build(Config{
		HostsPerJurisdiction: 2,
		ObjectsPerClass:      4,
		CallTimeout:          200 * time.Millisecond,
		CheckpointEvery:      time.Hour, // rounds are forced explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cli := s.Clients[0]
	work := func(l loid.LOID) uint64 {
		t.Helper()
		res, err := cli.Call(l, "Work")
		if err != nil || res.Code != wire.OK {
			t.Fatalf("Work on %v: %v %v", l, res, err)
		}
		raw, _ := res.Result(0)
		v, _ := wire.AsUint64(raw)
		return v
	}
	hostOf := func(l loid.LOID) int {
		for h := range s.Sys.Jurisdictions[0].Hosts {
			if _, _, node, err := s.hostSite(0, h); err == nil {
				if _, ok := node.Lookup(l); ok {
					return h
				}
			}
		}
		return -1
	}
	// The victim host must not run the class object (a moved class
	// object is not re-announced; see ROADMAP item 1).
	home := 1 - hostOf(s.Classes[0].Class())
	var l loid.LOID
	for _, f := range s.Flat {
		if hostOf(f) == home {
			l = f
			break
		}
	}
	if l.IsNil() {
		t.Skipf("no worker landed on host %d", home)
	}

	const n = 3
	for i := 0; i < n; i++ {
		work(l)
	}
	if _, err := s.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CrashHostAndDetect(0, home); err != nil {
		t.Fatal(err)
	}
	if err := s.RestartHost(0, home); err != nil {
		t.Fatal(err)
	}
	// Ping heals the binding and waits out the adoption without
	// touching the mutation clock.
	if res, err := cli.Call(l, "Ping"); err != nil || res.Code != wire.OK {
		t.Fatalf("Ping after crash: %v %v", res, err)
	}
	if err := s.MigrateObject(context.Background(), l, 0, home); err != nil {
		t.Fatal(err)
	}
	if h := hostOf(l); h != home {
		t.Fatalf("object on host %d after migrating home to %d", h, home)
	}
	// The new incarnation's clock restarts at zero: n more calls put it
	// exactly where the old incarnation's last checkpoint was taken.
	for i := 0; i < n; i++ {
		work(l)
	}
	if saved, err := s.CheckpointNow(); err != nil || saved == 0 {
		t.Fatalf("CheckpointNow = %d, %v; the returned object was skipped as idle", saved, err)
	}
	if _, err := s.CrashHostAndDetect(0, home); err != nil {
		t.Fatal(err)
	}
	if got := work(l); got != 2*n+1 {
		t.Errorf("count = %d after the second crash, want %d: acknowledged calls lost", got, 2*n+1)
	}
}
