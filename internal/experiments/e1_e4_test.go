package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runE1 reproduces Fig 17 / §4.1.2: the binding resolution escalation
// path. A reference is timed with the binding present at each level:
// the caller's local cache, the Binding Agent's cache, the class
// object's logical table, and finally nowhere — forcing the Magistrate
// to activate the object. Each added level must cost more.
func runE1() (*Table, error) {
	const iters = 300
	s, err := sim.Build(sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	obj := s.Flat[0]
	cli := s.Clients[0]
	cl := s.Classes[0]
	boot := s.Sys.BootClient()
	ctx := context.Background()
	mag := boot.To(s.Sys.Jurisdictions[0].Magistrate)
	leaf := s.Sys.Leaves[0]
	agent := boot.At(leaf.Addr, leaf.LOID)
	dropAgent := func() error {
		_, err := class.InvalidateLOID.Call(ctx, agent, []loid.LOID{obj})
		return err
	}

	// One warm-up call populates all levels.
	if res, err := cli.Call(obj, "Work"); err != nil || res.Code != wire.OK {
		return nil, fmt.Errorf("E1 warm-up: %v %v", res, err)
	}

	netSent := s.Reg.Counter("net/sent")
	// measure runs prep (whose own messages are excluded), then one
	// timed call, returning (mean latency, mean messages per call).
	measure := func(prep func() error) (time.Duration, float64, error) {
		var total time.Duration
		var msgs uint64
		for i := 0; i < iters; i++ {
			if prep != nil {
				if err := prep(); err != nil {
					return 0, 0, err
				}
			}
			before := netSent.Value()
			t0 := time.Now()
			res, err := cli.Call(obj, "Work")
			total += time.Since(t0)
			msgs += netSent.Value() - before
			if err != nil || res.Code != wire.OK {
				return 0, 0, fmt.Errorf("E1 call: %v %v", res, err)
			}
		}
		return total / time.Duration(iters), float64(msgs) / float64(iters), nil
	}

	// Level 0: local cache hit.
	l0, m0, err := measure(nil)
	if err != nil {
		return nil, err
	}
	// Level 1: local miss, agent cache hit.
	l1, m1, err := measure(func() error {
		cli.Cache().InvalidateLOID(obj)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Level 2: local+agent miss, class table hit.
	l2, m2, err := measure(func() error {
		cli.Cache().InvalidateLOID(obj)
		return dropAgent()
	})
	if err != nil {
		return nil, err
	}
	// Level 3: nothing knows an address — Magistrate must activate.
	l3, m3, err := measure(func() error {
		if _, err := magistrate.Deactivate.Call(ctx, mag, obj); err != nil {
			return err
		}
		if _, err := class.NotifyDeactivated.Call(ctx, cl.Ref, obj); err != nil {
			return err
		}
		cli.Cache().InvalidateLOID(obj)
		return dropAgent()
	})
	if err != nil {
		return nil, err
	}

	row := func(level, where string, lat time.Duration, msgs float64) []string {
		return []string{level, where, fmt.Sprintf("%.1f", msgs), us(lat)}
	}
	t := &Table{
		ID:      "E1",
		Title:   "Binding resolution path (Fig 17, §4.1.2)",
		Claim:   "resolution escalates local cache → Binding Agent → class → Magistrate Activate; each level adds message hops, and referring to an Inert object's LOID re-activates it",
		Columns: []string{"level", "where the binding was found", "messages/call", "mean latency"},
		Rows: [][]string{
			row("L0", "caller's local binding cache", l0, m0),
			row("L1", "Binding Agent cache", l1, m1),
			row("L2", "class object logical table", l2, m2),
			row("L3", "Magistrate Activate (object was Inert)", l3, m3),
		},
	}
	if m0 < m1 && m1 < m2 && m2 < m3 {
		t.Finding = "holds: every escalation level adds message hops (latency follows, modulo scheduler noise)"
	} else {
		t.Finding = fmt.Sprintf("fails: message counts %.1f, %.1f, %.1f, %.1f not strictly increasing", m0, m1, m2, m3)
	}
	return t, nil
}

// runE2 reproduces §5.2.1: each object maintains a binding cache, so
// its Binding Agent is consulted only on local misses. Sweeping the
// client cache size over a fixed working set shows hit rate rising and
// agent traffic falling.
func runE2() (*Table, error) {
	const objects, refs = 256, 4096
	sizes := []int{1, 8, 64, 512}
	t := &Table{
		ID:      "E2",
		Title:   "Object-to-Binding-Agent traffic vs local cache size (§5.2.1)",
		Claim:   "an object's Binding Agent will only be consulted on a local cache miss; bigger local caches absorb the reference stream",
		Columns: []string{"client cache", "hit rate", "agent req/1k refs", "LegionClass req/1k refs", "mean latency"},
	}
	var prevAgent uint64 = ^uint64(0)
	monotone := true
	for _, size := range sizes {
		s, err := sim.Build(sim.Config{
			Classes: 1, ObjectsPerClass: objects, Clients: 2,
			ClientCacheSize: size, Seed: 42,
		})
		if err != nil {
			return nil, err
		}
		// Warm-up pass, then measured pass.
		if _, err := s.RunLookups(sim.LookupWorkload{References: refs, Locality: 0.9, HomeSize: size / 2}); err != nil {
			s.Close()
			return nil, err
		}
		s.ResetMetrics()
		res, err := s.RunLookups(sim.LookupWorkload{References: refs, Locality: 0.9, HomeSize: size / 2})
		if err != nil {
			s.Close()
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size),
			fmt.Sprintf("%.1f%%", res.ClientHitRate*100),
			per1k(res.AgentRequests, res.References),
			per1k(res.LegionClassRequests, res.References),
			us(res.MeanLatency),
		})
		if res.AgentRequests > prevAgent {
			monotone = false
		}
		prevAgent = res.AgentRequests
		s.Close()
	}
	if monotone {
		t.Finding = "holds: agent traffic falls monotonically as the local cache grows"
	} else {
		t.Finding = "partial: agent traffic not strictly monotone across sizes"
	}
	return t, nil
}

// runE3 reproduces §5.2.2's combining-tree argument: organizing
// Binding Agents into a k-ary tree eliminates leaf traffic to
// LegionClass, and per-component load does not grow with client count
// (the distributed systems principle).
func runE3() (*Table, error) {
	const clients, refsPerClient = 16, 64
	type cfg struct {
		leaves, fanout int
		label          string
	}
	cfgs := []cfg{
		{4, 0, "4 flat agents"},
		{4, 2, "4 leaves, fanout 2"},
		{4, 4, "4 leaves, fanout 4"},
		{8, 0, "8 flat agents"},
		{8, 2, "8 leaves, fanout 2"},
	}
	t := &Table{
		ID:      "E3",
		Title:   "Binding Agent combining tree vs LegionClass load (§5.2.2)",
		Claim:   "a k-ary tree of Binding Agents eliminates traffic from leaf agents to LegionClass, arbitrarily reducing its load; no component's request count may grow with system size",
		Columns: []string{"topology", "LegionClass req/1k refs", "class objects req/1k refs", "max single agent req/1k refs"},
	}
	// Each tree must put less load on LegionClass than the flat layout
	// of as many leaves (listed first), and the trees less than the flat
	// layouts on average.
	flatAt := make(map[int]float64)
	var flatMean, treeMean float64
	var nf, nt int
	var worse []string
	for _, c := range cfgs {
		s, err := sim.Build(sim.Config{
			Classes: 2, ObjectsPerClass: 16, Clients: clients,
			LeafAgents: c.leaves, AgentFanout: c.fanout,
			ClientCacheSize: 1, // force constant agent pressure
			Seed:            7,
		})
		if err != nil {
			return nil, err
		}
		s.ResetMetrics()
		res, err := s.RunLookups(sim.LookupWorkload{
			References: clients * refsPerClient, Locality: 0, Concurrent: true,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		maxAgent, _ := s.Reg.MaxCounter("req/bindagent/")
		t.Rows = append(t.Rows, []string{
			c.label,
			per1k(res.LegionClassRequests, res.References),
			per1k(res.ClassRequests, res.References),
			per1k(maxAgent.Value, res.References),
		})
		lc := float64(res.LegionClassRequests) * 1000 / float64(res.References)
		if c.fanout == 0 {
			flatAt[c.leaves] = lc
			flatMean += lc
			nf++
		} else {
			if lc >= flatAt[c.leaves] {
				worse = append(worse, fmt.Sprintf("%s %.1f vs flat %.1f", c.label, lc, flatAt[c.leaves]))
			}
			treeMean += lc
			nt++
		}
		s.Close()
	}
	flatMean /= float64(nf)
	treeMean /= float64(nt)
	if treeMean < flatMean && len(worse) == 0 {
		t.Finding = fmt.Sprintf("holds: tree topologies place %.1f LegionClass req/1k vs %.1f flat, and each tree less than the flat layout of as many leaves", treeMean, flatMean)
	} else {
		t.Finding = fmt.Sprintf("fails: tree %.1f vs flat %.1f; trees not below flat: %v", treeMean, flatMean, worse)
	}
	return t, nil
}

// runE4 reproduces §5.2.2's class-cloning relief: "the problem of
// popular class objects becoming bottlenecks can be alleviated by
// cloning class objects ... new instantiation and derivation requests
// are passed to the cloned object."
func runE4() (*Table, error) {
	const creates = 96
	t := &Table{
		ID:      "E4",
		Title:   "Cloning hot class objects (§5.2.2)",
		Claim:   "cloning a heavily used class without changing its interface spreads new create/bind traffic across clones, relieving the original",
		Columns: []string{"clones", "creates", "elapsed", "creates/sec", "max per-class-object reqs"},
	}
	var firstMax, lastMax uint64
	for _, clones := range []int{0, 1, 3} {
		s, err := sim.Build(sim.Config{
			Jurisdictions: 2, HostsPerJurisdiction: 2,
			Classes: 1, ObjectsPerClass: 1, Clients: 1,
		})
		if err != nil {
			return nil, err
		}
		hot := s.Classes[0]
		targets := []*class.Client{hot}
		for i := 0; i < clones; i++ {
			clone, err := class.Clone.Call(context.Background(), hot.Ref, loid.Nil)
			if err != nil {
				s.Close()
				return nil, err
			}
			s.Sys.BootClient().AddBinding(clone.Binding)
			targets = append(targets, &class.Client{Ref: s.Sys.BootClient().To(clone.LOID)})
		}
		s.ResetMetrics()
		start := time.Now()
		for i := 0; i < creates; i++ {
			if _, err := class.Create.Call(context.Background(), targets[i%len(targets)].Ref, nil, loid.Nil, loid.Nil); err != nil {
				s.Close()
				return nil, fmt.Errorf("E4 create via target %d: %w", i%len(targets), err)
			}
		}
		elapsed := time.Since(start)
		_, maxClass := s.ClassRequests(targets)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", clones),
			fmt.Sprintf("%d", creates),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(creates)/elapsed.Seconds()),
			fmt.Sprintf("%d", maxClass),
		})
		if clones == 0 {
			firstMax = maxClass
		}
		lastMax = maxClass
		s.Close()
	}
	if lastMax < firstMax {
		t.Finding = fmt.Sprintf("holds: max per-class-object load falls from %d (no clones) to %d (3 clones)", firstMax, lastMax)
	} else {
		t.Finding = fmt.Sprintf("fails: %d -> %d", firstMax, lastMax)
	}
	return t, nil
}
