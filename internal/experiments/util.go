package experiments

import (
	"repro/internal/bindagent"
	"repro/internal/sim"
)

// agentOf builds a client handle on the sim's i-th leaf Binding Agent,
// calling through the boot caller.
func agentOf(s *sim.Sim, i int) *bindagent.Client {
	leaf := s.Sys.Leaves[i%len(s.Sys.Leaves)]
	return bindagent.NewClient(s.Sys.BootClient(), leaf.LOID, leaf.Addr)
}
