package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/class"
	"repro/internal/magistrate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runE13 is the ablation for explicit binding propagation (§4.1.4:
// "Some classes may even attempt to reduce the number of stale
// bindings by explicitly propagating news of an object's migration or
// removal"). Several clients behind distinct Binding Agents chase an
// object that keeps being deactivated; with subscription-based pushes
// enabled, agents hear the news instead of each independently paying
// the refresh path.
func runE13() (*Table, error) {
	const rounds = 80
	const agents = 4
	t := &Table{
		ID:      "E13",
		Title:   "Ablation: explicit binding propagation (§4.1.4)",
		Claim:   "classes that push migration/removal news to subscribed Binding Agents reduce the per-agent refresh work that stale bindings otherwise cause",
		Columns: []string{"propagation", "refs", "failures", "mean latency", "class req/1k", "magistrate req/1k"},
	}
	var lat [2]time.Duration
	var classLoad [2]uint64
	for i, subscribed := range []bool{false, true} {
		// Three hosts, so the rotating re-activation below usually lands
		// the object on a *different* host than before.
		s, err := sim.Build(sim.Config{
			LeafAgents: agents, Clients: agents,
			HostsPerJurisdiction: 3,
			Classes:              1, ObjectsPerClass: 8, Seed: 21,
		})
		if err != nil {
			return nil, err
		}
		cl := s.Classes[0]
		if subscribed {
			for _, leaf := range s.Sys.Leaves {
				if _, err := class.SubscribeAgent.Call(context.Background(), cl.Ref, leaf.LOID, leaf.Addr); err != nil {
					s.Close()
					return nil, err
				}
			}
		}
		// Warm every client against every object.
		for _, c := range s.Clients {
			for _, o := range s.Flat {
				if res, err := c.Call(o, "Work"); err != nil || res.Code != wire.OK {
					s.Close()
					return nil, fmt.Errorf("E13 warm: %v %v", res, err)
				}
			}
		}
		s.ResetMetrics()
		mag := s.Sys.BootClient().To(s.Sys.Jurisdictions[0].Magistrate)
		hosts := s.Sys.Jurisdictions[0].Hosts
		var total time.Duration
		refs, failures := 0, 0
		for r := 0; r < rounds; r++ {
			target := s.Flat[r%len(s.Flat)]
			if _, err := magistrate.Deactivate.Call(context.Background(), mag, target); err != nil {
				s.Close()
				return nil, err
			}
			// The disturbance must *move* the object: the load-aware
			// placement would put it right back on the host it left (its
			// slot is now the emptiest), and no binding would ever go
			// stale. The run re-activates it on a rotating host.
			if _, err := magistrate.Activate.Call(context.Background(), mag, target, hosts[r%len(hosts)]); err != nil {
				s.Close()
				return nil, err
			}
			// The class does not know yet; the first client heals the
			// binding, and — when subscribed — its agentmates hear the
			// news through the push.
			for _, c := range s.Clients {
				t0 := time.Now()
				res, err := c.Call(target, "Work")
				total += time.Since(t0)
				refs++
				if err != nil || res.Code != wire.OK {
					failures++
				}
				// Clients act moments apart, not back-to-back in the
				// same microsecond: give one-way news time to travel
				// (applied identically to both variants).
				time.Sleep(500 * time.Microsecond)
			}
		}
		label := "off"
		if subscribed {
			label = "on"
		}
		lat[i] = total / time.Duration(refs)
		classReqs := s.Reg.Counter("req/obj/" + cl.Class().ID().String()).Value()
		classLoad[i] = classReqs
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", refs),
			fmt.Sprintf("%d", failures),
			us(lat[i]),
			per1k(classReqs, refs),
			per1k(s.Reg.SumCounters("req/magistrate/"), refs),
		})
		if failures > 0 {
			t.Finding = fmt.Sprintf("fails: %d failures with propagation=%v", failures, subscribed)
		}
		s.Close()
	}
	if t.Finding == "" {
		if classLoad[1] < classLoad[0] {
			t.Finding = fmt.Sprintf("holds: propagation cuts class-object refresh load %d -> %d requests (zero failures either way; latency is a wash at in-process scale but the saved consults are wide-area round trips)", classLoad[0], classLoad[1])
		} else {
			t.Finding = fmt.Sprintf("fails: class load %d (off) vs %d (on)", classLoad[0], classLoad[1])
		}
	}
	return t, nil
}
