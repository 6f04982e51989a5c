package sched

import (
	"context"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/transport"
)

func candidates(n int) []loid.LOID {
	out := make([]loid.LOID, n)
	for i := range out {
		out[i] = loid.NewNoKey(loid.ClassIDLegionHost, uint64(i+1))
	}
	return out
}

func TestRoundRobinCycles(t *testing.T) {
	p := &RoundRobin{}
	cs := candidates(3)
	var got []loid.LOID
	for i := 0; i < 6; i++ {
		h, err := p.Pick(cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, h)
	}
	for i := 0; i < 3; i++ {
		if got[i] != cs[i] || got[i+3] != cs[i] {
			t.Errorf("round robin order wrong: %v", got)
		}
	}
}

func TestRandomCoversCandidates(t *testing.T) {
	p := NewRandom(7)
	cs := candidates(3)
	seen := map[loid.LOID]bool{}
	for i := 0; i < 100; i++ {
		h, _ := p.Pick(cs, nil)
		seen[h] = true
	}
	if len(seen) != 3 {
		t.Errorf("random policy never chose some hosts: %v", seen)
	}
}

func TestLeastLoaded(t *testing.T) {
	cs := candidates(3)
	loads := map[loid.LOID]uint64{cs[0]: 5, cs[1]: 1, cs[2]: 3}
	ask := func(h loid.LOID) (host.Load, error) {
		return host.Load{Residents: loads[h]}, nil
	}
	p := NewLeastLoaded()
	h, err := p.Pick(cs, ask)
	if err != nil || h != cs[1] {
		t.Errorf("Pick = %v, %v", h, err)
	}
	// nil ask degrades to first candidate.
	if h, _ := NewLeastLoaded().Pick(cs, nil); h != cs[0] {
		t.Error("nil-ask fallback wrong")
	}
}

func TestLeastLoadedHysteresis(t *testing.T) {
	cs := candidates(2)
	p := NewLeastLoaded()
	depth := map[loid.LOID]uint64{cs[0]: 0, cs[1]: 0}
	ask := func(h loid.LOID) (host.Load, error) {
		return host.Load{Residents: 1, MailboxDepth: depth[h]}, nil
	}
	if h, _ := p.Pick(cs, ask); h != cs[0] {
		t.Fatalf("first pick = %v", h)
	}
	// A sub-margin backlog wiggle must not move the pick...
	depth[cs[0]] = 1 // score +0.25 < 0.5 margin
	if h, _ := p.Pick(cs, ask); h != cs[0] {
		t.Error("hysteresis did not hold the previous pick")
	}
	// ...but a real imbalance must.
	depth[cs[0]] = 8 // score +2.0
	if h, _ := p.Pick(cs, ask); h != cs[1] {
		t.Error("hysteresis held through a real imbalance")
	}
}

func TestAgentOverWire(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	impls := implreg.NewRegistry()
	impls.MustRegister("noop", func() rt.Impl {
		return &rt.Behavior{Iface: idl.NewInterface("Noop")}
	})

	// Two hosts with different loads.
	var hostLs []loid.LOID
	var hosts []*host.Host
	resolver := map[loid.LOID]binding.Binding{}
	for i := 0; i < 2; i++ {
		n, _ := rt.NewNode(f, nil, "h")
		defer n.Close()
		hl := loid.NewNoKey(loid.ClassIDLegionHost, uint64(i+1))
		h := host.New(hl, n, impls, nil)
		n.Spawn(hl, h)
		hostLs = append(hostLs, hl)
		hosts = append(hosts, h)
		resolver[hl.ID()] = binding.Forever(hl, n.Address())
	}

	agentNode, _ := rt.NewNode(f, nil, "agent")
	defer agentNode.Close()
	agentL := loid.NewNoKey(400, 1)
	agent := NewAgent(NewLeastLoaded())
	agentCaller := rt.NewCaller(agentNode, agentL, nil)
	agentCaller.Timeout = time.Second
	for _, b := range resolver {
		agentCaller.AddBinding(b)
	}
	if _, err := agentNode.Spawn(agentL, agent, rt.WithCaller(agentCaller)); err != nil {
		t.Fatal(err)
	}

	clientNode, _ := rt.NewNode(f, nil, "c")
	defer clientNode.Close()
	caller := rt.NewCaller(clientNode, loid.NewNoKey(300, 1), nil)
	caller.Timeout = time.Second
	caller.AddBinding(binding.Forever(agentL, agentNode.Address()))
	caller.AddBinding(resolver[hostLs[0].ID()])
	cl := caller.To(agentL)

	// Load host 0 with two objects.
	set := []persist.OPR{{LOID: loid.NewNoKey(256, 1), Impl: "noop"}, {LOID: loid.NewNoKey(256, 2), Impl: "noop"}}
	if _, err := host.StartObjects.Call(context.Background(), caller.To(hostLs[0]), set); err != nil {
		t.Fatal(err)
	}

	picked, err := PickHost.Call(context.Background(), cl, hostLs)
	if err != nil {
		t.Fatal(err)
	}
	if !picked.SameObject(hostLs[1]) {
		t.Errorf("picked %v, want the unloaded host %v", picked, hostLs[1])
	}
	name, err := PolicyName.Call(context.Background(), cl)
	if err != nil || name != "least-loaded" {
		t.Errorf("PolicyName = %q, %v", name, err)
	}
	// Empty candidate list is an error.
	if _, err := PickHost.Call(context.Background(), cl, nil); err == nil {
		t.Error("empty PickHost succeeded")
	}
}
