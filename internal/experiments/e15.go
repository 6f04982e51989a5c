package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/class"
	"repro/internal/loid"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RunE15 re-runs the E1 binding path under simulated wide-area latency.
// Legion "targets wide-area assemblies" (§1); in that regime a message
// is milliseconds, not microseconds, so the cost of a reference is its
// hop count times the one-way latency — which is exactly why the paper
// layers caches in front of every escalation level. The measured
// latency should track messages/call × one-way latency.
func RunE15(scale Scale) (*Table, error) {
	iters := 5
	if scale == Full {
		iters = 15
	}
	oneWay := 3 * time.Millisecond
	t := &Table{
		ID:      "E15",
		Title:   "Binding path under wide-area latency (§1, §5.2)",
		Claim:   "in the wide-area setting the paper targets, reference cost is hop count × network latency; the cache hierarchy turns a 10-message escalation into a 2-message common case",
		Columns: []string{"level", "messages/call", "mean latency", "predicted (msgs × 1-way)", "accuracy"},
	}
	s, err := sim.Build(sim.Config{Classes: 1, ObjectsPerClass: 1, Clients: 1, CallTimeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	s.Sys.Fabric.SetLatency(oneWay)
	obj := s.Flat[0]
	cli := s.Clients[0]
	leaf := s.Sys.Leaves[0]
	agent := s.Sys.BootClient().At(leaf.Addr, leaf.LOID)
	netSent := s.Reg.Counter("net/sent")

	if res, err := cli.Call(obj, "Work"); err != nil || res.Code != wire.OK {
		return nil, fmt.Errorf("E15 warm: %v %v", res, err)
	}
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
				return 0, 0, fmt.Errorf("E15 call: %v %v", res, err)
			}
		}
		return total / time.Duration(iters), float64(msgs) / float64(iters), nil
	}

	type level struct {
		name string
		prep func() error
	}
	levels := []level{
		{"L0 local cache", nil},
		{"L1 agent cache", func() error {
			cli.Cache().InvalidateLOID(obj)
			return nil
		}},
		{"L2 class table", func() error {
			cli.Cache().InvalidateLOID(obj)
			_, err := class.InvalidateLOID.Call(context.Background(), agent, []loid.LOID{obj})
			return err
		}},
	}
	holds := true
	for _, lv := range levels {
		lat, msgs, err := measure(lv.prep)
		if err != nil {
			return nil, err
		}
		predicted := time.Duration(msgs) * oneWay
		accuracy := float64(lat) / float64(predicted)
		t.Rows = append(t.Rows, []string{
			lv.name,
			fmt.Sprintf("%.1f", msgs),
			lat.Round(100 * time.Microsecond).String(),
			predicted.String(),
			fmt.Sprintf("%.2fx", accuracy),
		})
		// The model holds if measured latency is within 2x of the hop
		// prediction (scheduler jitter and timer resolution add slack).
		if accuracy < 0.8 || accuracy > 2.0 {
			holds = false
		}
	}
	if holds {
		t.Finding = "holds: measured wide-area latency tracks messages/call × one-way latency at every level, so each cache layer saves real round trips"
	} else {
		t.Finding = "weak: measured latency deviates >2x from the hop-count model"
	}
	return t, nil
}
