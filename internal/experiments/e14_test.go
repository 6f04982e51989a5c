package experiments

import (
	"context"
	"fmt"

	"repro/internal/class"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/loid"
	"repro/internal/sim"
)

// runE14 is the ablation for the scheduling hooks (§3.7, §3.8):
// "complex scheduling policies are intended to be implemented outside
// of the Magistrate in Scheduling Agents". With part of the load pinned
// to one host (simulating externally-placed work), a round-robin
// Scheduling Agent keeps stacking objects there, while a least-loaded
// one steers new objects away: the class hook, not the Magistrate,
// decides.
func runE14() (*Table, error) {
	const creates = 45
	const hosts = 3
	t := &Table{
		ID:      "E14",
		Title:   "Ablation: placement policy in Scheduling Agents (§3.7, §3.8)",
		Claim:   "scheduling policy lives outside the Magistrate: swapping the Scheduling Agent the class hook consults, round-robin for least-loaded, balances placement with no change to the Magistrate",
		Columns: []string{"policy", "creates", "pinned-host objects", "max host objects", "min host objects", "imbalance"},
	}
	var imbalances []float64
	for _, policy := range []struct{ name, impl string }{
		{"round-robin agent", core.SchedRoundRobinImpl},
		{"least-loaded agent", core.SchedLeastLoadedImpl},
	} {
		s, err := sim.Build(sim.Config{
			HostsPerJurisdiction: hosts,
			Classes:              1, ObjectsPerClass: 1, Clients: 1, Seed: 31,
		})
		if err != nil {
			return nil, err
		}
		cl := s.Classes[0]
		juris := s.Sys.Jurisdictions[0]
		agent, err := s.Sys.NewSchedulingAgent(policy.impl)
		if err != nil {
			s.Close()
			return nil, err
		}
		if _, err := class.SetDefaultSchedulingAgent.Call(context.Background(), cl.Ref, agent); err != nil {
			s.Close()
			return nil, err
		}
		// Pin a third of the load onto host 0 — work placed by someone
		// else that a round-robin policy cannot see.
		pinned := creates / 3
		for i := 0; i < pinned; i++ {
			if _, err := class.Create.Call(context.Background(), cl.Ref, nil, juris.Magistrate, juris.Hosts[0]); err != nil {
				s.Close()
				return nil, err
			}
		}
		// The rest are unpinned: placement is the policy's call.
		for i := 0; i < creates-pinned; i++ {
			if _, err := class.Create.Call(context.Background(), cl.Ref, nil, loid.Nil, loid.Nil); err != nil {
				s.Close()
				return nil, err
			}
		}
		loads := make([]uint64, hosts)
		maxL, minL := uint64(0), ^uint64(0)
		for i, hl := range juris.Hosts {
			st, err := hostState(s, hl)
			if err != nil {
				s.Close()
				return nil, err
			}
			loads[i] = st
			if st > maxL {
				maxL = st
			}
			if st < minL {
				minL = st
			}
		}
		imbalance := float64(maxL) / float64(minL+1)
		imbalances = append(imbalances, imbalance)
		t.Rows = append(t.Rows, []string{
			policy.name,
			fmt.Sprintf("%d", creates),
			fmt.Sprintf("%d", loads[0]),
			fmt.Sprintf("%d", maxL),
			fmt.Sprintf("%d", minL),
			fmt.Sprintf("%.2f", imbalance),
		})
		s.Close()
	}
	if imbalances[1] < imbalances[0] {
		t.Finding = fmt.Sprintf("holds: the Scheduling Agent cuts the max/min host imbalance from %.2f to %.2f", imbalances[0], imbalances[1])
	} else {
		t.Finding = fmt.Sprintf("fails: imbalance %.2f (round-robin) vs %.2f (agent)", imbalances[0], imbalances[1])
	}
	return t, nil
}

func hostState(s *sim.Sim, hl loid.LOID) (uint64, error) {
	st, err := host.GetState.Call(context.Background(), s.Sys.BootClient().To(hl))
	if err != nil {
		return 0, err
	}
	return st.Objects, nil
}
