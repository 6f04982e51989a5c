package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/wire"
)

// TestBindingPropagationToSubscribedAgents exercises the §4.1.4
// option: a class with subscribed Binding Agents pushes fresh bindings
// on creation and reactivation, and invalidations on deletion — so
// agents see news before clients hit stale addresses.
func TestBindingPropagationToSubscribedAgents(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	leaf := sys.Leaves[0]
	if _, err := class.SubscribeAgent.Call(context.Background(), cl.Ref, leaf.LOID, leaf.Addr); err != nil {
		t.Fatal(err)
	}

	// Create: the binding should arrive at the agent without the agent
	// ever asking for it.
	before := sys.Reg.Counter("req/class/LegionClass").Value()
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	// Give the one-way push a moment to land.
	waitForAgentHit(t, sys, obj, true)
	// A cold client resolves through the leaf agent — which now serves
	// from cache: no class consult needed for the object itself.
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
		t.Fatalf("call: %v %v", res, err)
	}
	_ = before

	// Deactivate + reactivate behind the client's back: the class
	// pushes the fresh binding to the agent during its magistrate
	// consult, so subsequent resolutions see the new address.
	mag := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if err := mag.Deactivate(obj); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetBinding(obj); err != nil { // class reactivates, pushes
		t.Fatal(err)
	}
	waitForAgentHit(t, sys, obj, true)

	// Delete: the agent hears the invalidation.
	if _, err := class.Delete.Call(context.Background(), cl.Ref, obj); err != nil {
		t.Fatal(err)
	}
	waitForAgentHit(t, sys, obj, false)

	// Unsubscribe works.
	if _, err := class.UnsubscribeAgent.Call(context.Background(), cl.Ref, leaf.LOID); err != nil {
		t.Fatal(err)
	}
	obj2, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if agentHasBinding(sys, obj2) {
		t.Error("unsubscribed agent still received pushes")
	}
}

// agentHasBinding checks the leaf agent's cache directly (white box).
func agentHasBinding(sys *System, l loid.LOID) bool {
	o, ok := sys.FindObject(sys.Leaves[0].LOID)
	if !ok {
		return false
	}
	a, ok := o.Impl().(*bindagent.Agent)
	if !ok {
		return false
	}
	_, hit := a.Cache().Get(l)
	return hit
}

func waitForAgentHit(t *testing.T, sys *System, l loid.LOID, want bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if agentHasBinding(sys, l) == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("agent cache state for %v never became %v", l, want)
}
