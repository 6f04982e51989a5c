package core

import (
	"context"
	"testing"

	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/sched"
)

// TestSchedulingAgentDrivesPlacement exercises the §3.7 scheduling
// hook end to end: a class with a least-loaded Scheduling Agent places
// new instances on the emptiest host, overriding the Magistrate's
// round-robin default.
func TestSchedulingAgentDrivesPlacement(t *testing.T) {
	sys := bootSys(t, Options{HostsPerJurisdiction: 3})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := sys.NewSchedulingAgent(SchedLeastLoadedImpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class.SetDefaultSchedulingAgent.Call(context.Background(), cl.Ref, agent); err != nil {
		t.Fatal(err)
	}

	// Pre-load host 0 with two pinned objects so it is clearly the
	// busiest.
	juris := sys.Jurisdictions[0]
	for i := 0; i < 2; i++ {
		if _, _, err := cl.Create(nil, juris.Magistrate, juris.Hosts[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Unpinned creates must now avoid host 0 (least-loaded policy).
	before := hostLoad(t, sys, juris.Hosts[0])
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Create(nil, loid.Nil, loid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	after := hostLoad(t, sys, juris.Hosts[0])
	if after != before {
		t.Errorf("least-loaded agent still placed %d objects on the busy host", after-before)
	}
	// The other hosts absorbed the creates.
	total := hostLoad(t, sys, juris.Hosts[1]) + hostLoad(t, sys, juris.Hosts[2])
	if total < 3 {
		t.Errorf("other hosts run %d objects, want >= 3", total)
	}
}

func hostLoad(t *testing.T, sys *System, h loid.LOID) uint64 {
	t.Helper()
	st, err := host.GetState.Call(context.Background(), sys.BootClient().To(h))
	if err != nil {
		t.Fatal(err)
	}
	return st.Objects
}

// TestSchedulingAgentIsOrdinaryObject confirms the agent itself was
// created through the normal Create machinery and answers its class's
// interface.
func TestSchedulingAgentIsOrdinaryObject(t *testing.T) {
	sys := bootSys(t, Options{})
	agent, err := sys.NewSchedulingAgent(SchedRoundRobinImpl)
	if err != nil {
		t.Fatal(err)
	}
	// Reachable through the full binding path from a fresh client.
	user, err := sys.NewClient(loid.NewNoKey(300, 77))
	if err != nil {
		t.Fatal(err)
	}
	name, err := sched.PolicyName.Call(context.Background(), user.To(agent))
	if err != nil || name != "round-robin" {
		t.Errorf("PolicyName = %q, %v", name, err)
	}
	// Unknown policy implementations are rejected.
	if _, err := sys.NewSchedulingAgent("sched.fortune-teller"); err == nil {
		t.Error("unknown policy accepted")
	}
	// A second agent of the same policy reuses the derived class.
	a2, err := sys.NewSchedulingAgent(SchedRoundRobinImpl)
	if err != nil {
		t.Fatal(err)
	}
	if a2.ClassID != agent.ClassID {
		t.Errorf("second agent got a different class: %v vs %v", a2, agent)
	}
	if a2.SameObject(agent) {
		t.Error("second agent is the same object")
	}
}

// TestRowLevelSchedulingAgentInheritance checks the Fig 16 default:
// the class's Scheduling Agent is recorded per-object row.
func TestRowLevelSchedulingAgentInheritance(t *testing.T) {
	sys := bootSys(t, Options{})
	cl, _, _ := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	agent, err := sys.NewSchedulingAgent(SchedRandomImpl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class.SetDefaultSchedulingAgent.Call(context.Background(), cl.Ref, agent); err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	row, err := class.GetRow.Call(context.Background(), cl.Ref, obj)
	if err != nil {
		t.Fatal(err)
	}
	if !row.SchedulingAgent.SameObject(agent) {
		t.Errorf("row scheduling agent = %v, want %v", row.SchedulingAgent, agent)
	}
}
