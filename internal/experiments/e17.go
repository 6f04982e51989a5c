package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bindagent"
	"repro/internal/magistrate"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// RunE17 attributes invocation latency across the §4.1 binding chain
// using the distributed tracer. Two traces of the same Work() call are
// compared span-by-span:
//
//   - warm: the client's binding cache holds the target, so the trace
//     is just the client call span plus the object's serve span;
//   - cold: the object was deactivated and every cache invalidated, so
//     the trace additionally crosses the Binding Agent (resolution),
//     the class object (binding lookup), the Magistrate (activation),
//     and the Host Object (StartObject) before the method runs.
//
// The experiment is the tracing pipeline's acceptance test: a single
// trace id must stitch all of those hops, on their distinct nodes, into
// one causal timeline — and the cold/warm difference must be explained
// by the extra hops the §4.1 chain names, not by magic.
func RunE17(scale Scale) (*Table, error) {
	warmIters := 50
	if scale == Full {
		warmIters = 500
	}

	s, err := sim.Build(sim.Config{
		Jurisdictions:        1,
		HostsPerJurisdiction: 1,
		Classes:              1,
		ObjectsPerClass:      1,
		Clients:              1,
		TraceSampleEvery:     1, // attribute every call
		Seed:                 17,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	tr := s.Tracer
	obj := s.Flat[0]
	cli := s.Clients[0]
	boot := s.Sys.BootClient()

	call := func(phase string) (uint64, error) {
		res, err := cli.Call(obj, "Work")
		if err != nil {
			return 0, fmt.Errorf("E17 %s call: %w", phase, err)
		}
		if res.Code != wire.OK {
			return 0, fmt.Errorf("E17 %s call: %v %s", phase, res.Code, res.ErrText)
		}
		ids := tr.TraceIDs()
		if len(ids) == 0 {
			return 0, fmt.Errorf("E17 %s call left no trace at SampleEvery=1", phase)
		}
		return ids[0], nil
	}

	// total is a trace's end-to-end time: the duration of its root call
	// span(s).
	total := func(spans []*trace.Span) time.Duration {
		var t time.Duration
		for _, sp := range spans {
			if sp.Kind == "call" && sp.Context().ParentSpanID == 0 {
				t += sp.Duration()
			}
		}
		return t
	}

	// Warm path: repeated calls against a cached binding. The
	// representative is the median call by end-to-end time, not the
	// last one: a single sample can absorb a GC pause or a descheduled
	// goroutine that has nothing to do with the chain being attributed.
	warmTraces := make([][]*trace.Span, warmIters)
	for i := range warmTraces {
		id, err := call("warm")
		if err != nil {
			return nil, err
		}
		warmTraces[i] = tr.Trace(id)
	}
	sort.Slice(warmTraces, func(i, j int) bool { return total(warmTraces[i]) < total(warmTraces[j]) })
	warm := warmTraces[len(warmTraces)/2]

	// Cold path: push the object back to its Object Persistent
	// Representation and forget it everywhere the §4.1 chain caches.
	mc := magistrate.NewClient(boot, s.Sys.Jurisdictions[0].Magistrate)
	if err := mc.Deactivate(obj); err != nil {
		return nil, fmt.Errorf("E17 deactivate: %w", err)
	}
	if err := s.Classes[0].NotifyDeactivated(obj); err != nil {
		return nil, fmt.Errorf("E17 notify class: %w", err)
	}
	cli.Cache().InvalidateLOID(obj)
	for _, leaf := range s.Sys.Agents {
		ac := bindagent.NewClient(boot, leaf.LOID, leaf.Addr)
		if err := ac.InvalidateLOID(obj); err != nil {
			return nil, fmt.Errorf("E17 invalidate agent %v: %w", leaf.LOID, err)
		}
	}

	coldID, err := call("cold")
	if err != nil {
		return nil, err
	}
	cold := tr.Trace(coldID)

	// The cold trace must cover the full chain: cache lookup → Binding
	// Agent → class → Magistrate activation → Host start → execution.
	// Hops are identified by who served what: the derived class object
	// is itself an ordinary hosted object (component "obj/<class
	// loid>"), so the method name disambiguates it from the instance.
	hops := []struct {
		label  string // table row
		prefix string // span Component prefix
		method string // served method
		warm   bool   // expected on the warm path too
	}{
		{"binding agent (resolve)", "bindagent/", "GetBinding", false},
		{"class object (lookup)", "obj/", "GetBinding", false},
		{"magistrate (activate)", "magistrate/", "Activate", false},
		{"host object (start)", "host/", "StartObject", false},
		{"method execution", "obj/", "Work", true},
	}
	agg := func(spans []*trace.Span, prefix, method string) (int, time.Duration) {
		var n int
		var d time.Duration
		for _, sp := range spans {
			if sp.Kind == "serve" && sp.Name == method && strings.HasPrefix(sp.Component, prefix) {
				n++
				d += sp.Duration()
			}
		}
		return n, d
	}
	cell := func(n int, d time.Duration) string {
		if n == 0 {
			return "—"
		}
		return fmt.Sprintf("%d × %s", n, us(d/time.Duration(n)))
	}

	t := &Table{
		ID:      "E17",
		Title:   "Per-hop latency attribution of warm vs cold invocation (§4.1)",
		Claim:   "an end-to-end trace stitches every hop of the binding chain — cache lookup, Binding Agent, class lookup, Magistrate activation, Host start, method execution — into one causal timeline, so the cold-path premium is fully attributed to the chain's extra hops",
		Columns: []string{"hop (§4.1 chain)", "cold (spans × mean)", "warm (spans × mean)"},
	}
	for _, h := range hops {
		cn, cd := agg(cold, h.prefix, h.method)
		wn, wd := agg(warm, h.prefix, h.method)
		if cn == 0 {
			return nil, fmt.Errorf("E17: cold trace has no %q hop — chain not covered:\n%s", h.prefix, trace.Timeline(cold))
		}
		if !h.warm && wn != 0 {
			return nil, fmt.Errorf("E17: warm trace unexpectedly crossed %q — cache did not short-circuit:\n%s", h.prefix, trace.Timeline(warm))
		}
		if h.warm && wn == 0 {
			return nil, fmt.Errorf("E17: warm trace missing %q execution hop:\n%s", h.prefix, trace.Timeline(warm))
		}
		t.Rows = append(t.Rows, []string{h.label, cell(cn, cd), cell(wn, wd)})
	}
	coldTotal, warmTotal := total(cold), total(warm)
	t.Rows = append(t.Rows, []string{"end-to-end (root span)", us(coldTotal), us(warmTotal)})
	if coldTotal <= warmTotal {
		return nil, fmt.Errorf("E17: cold call (%v) not slower than warm (%v)", coldTotal, warmTotal)
	}

	// The trace must export as Chrome trace-event JSON.
	out, err := trace.ChromeJSON(cold)
	if err != nil {
		return nil, fmt.Errorf("E17 chrome export: %w", err)
	}
	if !json.Valid(out) {
		return nil, fmt.Errorf("E17 chrome export is not valid JSON")
	}

	t.Finding = fmt.Sprintf(
		"holds: one trace id stitches %d cold-path spans across binding agent, class, magistrate, and host nodes; the warm path (%d spans) touches none of them, and the cold premium (%s vs %s) is attributed hop by hop",
		len(cold), len(warm), us(coldTotal), us(warmTotal))
	return t, nil
}
