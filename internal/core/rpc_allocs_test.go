package core

import (
	"context"
	"testing"

	"repro/internal/bindagent"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/persist"
)

// TestCoreRPCAllocs gates the allocations of a mem round trip through
// three core remote methods on their warm paths: Activate of an active
// object, a Binding Agent GetBinding that hits the agent's cache, and a
// StartObjects of a set of one object the host already runs, the set
// built per call. The ceilings are the counts measured before the
// methods were declared as typed descriptors; a declaration layer may
// not add to them. A lone class Create (Create → Instantiate →
// StartObjects, each a set of one) is held at the count measured
// before its news to subscribed agents became one push per set: a
// class nobody subscribed to builds no set.
func TestCoreRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sys := bootSys(t, Options{})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	boot := sys.BootClient()
	j := sys.Jurisdictions[0]
	mc := magistrate.NewClient(boot, j.Magistrate)
	leaf := sys.Leaves[0]
	agent := bindagent.NewClient(boot, leaf.LOID, leaf.Addr)
	hc := boot.To(j.Hosts[0])
	for _, tc := range []struct {
		name string
		max  float64
		call func() error
	}{
		{"Activate", 8, func() error { _, err := mc.Activate(obj, loid.Nil); return err }},
		{"GetBinding", 7, func() error { _, err := agent.Resolve(obj); return err }},
		{"StartObjects", 9, func() error {
			_, err := host.StartObjects.Call(context.Background(), hc, []persist.OPR{{LOID: obj, Impl: "counter"}})
			return err
		}},
		{"Create", 73, func() error { _, _, err := cl.Create(nil, loid.Nil, loid.Nil); return err }},
	} {
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if err := tc.call(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("%s: %.0f allocs per round trip", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %.0f allocs per round trip, want at most %.0f", tc.name, got, tc.max)
		}
	}
}
