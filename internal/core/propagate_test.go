package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
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

// serveCounter counts completed dispatches per method (rt.Observer).
type serveCounter struct {
	mu     sync.Mutex
	served map[string]int
}

func (c *serveCounter) ServeDone(_, method string, _ time.Duration, _ uint64) {
	c.mu.Lock()
	c.served[method]++
	c.mu.Unlock()
}

func (*serveCounter) Note(_, _, _ string, _ uint64) {}

func (c *serveCounter) count(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.served[method]
}

// countServes installs a serveCounter on the node that runs l.
func countServes(t *testing.T, sys *System, l loid.LOID) *serveCounter {
	t.Helper()
	o, ok := sys.FindObject(l)
	if !ok {
		t.Fatalf("%v runs nowhere", l)
	}
	c := &serveCounter{served: map[string]int{}}
	o.Node().SetObserver(c)
	return c
}

// TestSetNewsIsOneMessage: a set's news travels as a set (§4.1.4). A
// CreateSet of 64 sends each of two subscribed agents one AddBinding.
// Recovering a host of 256 residents of one class costs the class one
// NotifyAddress and each agent one AddBinding, whatever the set's size.
func TestSetNewsIsOneMessage(t *testing.T) {
	sys := bootSys(t, Options{HostsPerJurisdiction: 2, LeafAgents: 2, CheckpointEvery: time.Hour})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The residents live on the host the class object does not, so the
	// crash spares the class and its subscriptions.
	j := sys.Jurisdictions[0]
	classServes := countServes(t, sys, cl.Class())
	co, _ := sys.FindObject(cl.Class())
	victim := 0
	if co.Node().Address().Equal(j.HostAddrs[0]) {
		victim = 1
	}
	var agents []*serveCounter
	for _, leaf := range sys.Leaves {
		if _, err := class.SubscribeAgent.Call(context.Background(), cl.Ref, leaf.LOID, leaf.Addr); err != nil {
			t.Fatal(err)
		}
		agents = append(agents, countServes(t, sys, leaf.LOID))
	}
	// waitPushed waits until every agent's cache binds each of ls away
	// from the address avoid, then checks that each agent was sent want
	// AddBinding pushes in all.
	waitPushed := func(ls []loid.LOID, avoid oa.Address, want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			pushed := true
			for i := range sys.Leaves {
				o, _ := sys.FindObject(sys.Leaves[i].LOID)
				a := o.Impl().(*bindagent.Agent)
				for _, l := range ls {
					b, ok := a.Cache().Get(l)
					pushed = pushed && ok && !b.Address.Equal(avoid)
				}
			}
			if pushed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the agents never heard of the whole set")
			}
		}
		for i, a := range agents {
			if got := a.count("AddBinding"); got != want {
				t.Errorf("agent %d served %d AddBinding, want %d", i, got, want)
			}
		}
	}
	create := func(n uint64) []loid.LOID {
		t.Helper()
		made, err := class.CreateSet.Call(context.Background(), cl.Ref, class.NewSet{Count: n, HostHint: j.Hosts[victim]})
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]loid.LOID, len(made))
		for i, m := range made {
			ls[i] = m.LOID
		}
		return ls
	}
	ls := create(64)
	waitPushed(ls, oa.Address{}, 1)
	ls = append(ls, create(192)...)
	waitPushed(ls, oa.Address{}, 2)

	if _, err := sys.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	o, _ := sys.FindObject(j.Hosts[victim])
	id, ok := oa.MemID(o.Node().Element())
	if !ok {
		t.Fatal("host is not on the mem fabric")
	}
	sys.Fabric.Crash(id)
	j.HostImpls()[victim].CrashResidents()
	if lost := j.MagistrateImpl().HostFailed(j.Hosts[victim]); len(lost) != len(ls) {
		t.Fatalf("HostFailed lost %d objects, want %d", len(lost), len(ls))
	}
	waitPushed(ls, j.HostAddrs[victim], 3)
	if got := classServes.count("NotifyAddress"); got != 1 {
		t.Errorf("the class served %d NotifyAddress for a recovery of %d residents, want 1", got, len(ls))
	}
}
