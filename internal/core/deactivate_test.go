package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/wire"
)

// TestDeactivateUnderLoad: an object deactivated again and again while
// callers keep invoking it loses no acknowledged update — the OPR each
// Deactivate writes holds every call answered before it (§3.1.1) — and
// stalls no call for a whole reply wave: the host parks the calls that
// arrive during the drain and bounces them to their callers' retry
// loops, which refresh and reach the next incarnation.
func TestDeactivateUnderLoad(t *testing.T) {
	const callers, rounds = 8, 30
	const timeout = 2 * time.Second
	sys := bootSys(t, Options{HostsPerJurisdiction: 2, CallTimeout: timeout})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	mag := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)

	var (
		acked   atomic.Uint64
		slowest atomic.Int64 // ns
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	for i := 0; i < callers; i++ {
		user, err := sys.NewClient(loid.NewNoKey(300, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				t0 := time.Now()
				res, err := user.Call(obj, "Inc")
				for d := int64(time.Since(t0)); ; {
					s := slowest.Load()
					if d <= s || slowest.CompareAndSwap(s, d) {
						break
					}
				}
				if err == nil && res.Code == wire.OK {
					acked.Add(1)
				}
			}
		}()
	}
	// Each round waits for the callers to have brought the object back,
	// so every Deactivate stops a running incarnation.
	for i := 0; i < rounds; i++ {
		time.Sleep(2 * time.Millisecond)
		for {
			st, err := magistrate.HasObject.Call(context.Background(), mag.Ref, obj)
			if err != nil || st.Active {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if err := mag.Deactivate(obj); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("deactivation %d: %v", i+1, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d acknowledged Incs, slowest %v", acked.Load(), time.Duration(slowest.Load()))

	reader, err := sys.NewClient(loid.NewNoKey(300, callers+1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := reader.Call(obj, "Get")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Get: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	got, _ := wire.AsUint64(raw)
	if n := acked.Load(); got != n {
		t.Errorf("counter = %d after %d acknowledged Incs across %d deactivations", got, n, rounds)
	}
	if d := time.Duration(slowest.Load()); d >= timeout {
		t.Errorf("slowest Inc took %v, a whole %v reply wave", d, timeout)
	}
}
