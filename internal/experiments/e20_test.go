package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/magistrate"
	"repro/internal/sim"
	"repro/internal/wire"
)

// runE20 validates the observability plane end to end: a deployment
// under churn and live migration must be *queryable* — the questions an
// operator actually asks ("what is hot?", "where is the load?", "what
// was slow, and show me the trace", "where has this object lived?",
// "what just happened?") each answered by one LQL query over the
// Magistrate's control plane, with per-object stats joined from
// telemetry, exemplar traces resolvable in the tracer, and the flight
// recorder's timeline intact. The queries travel the real invocation
// path (legion query's wire roundtrip), not an in-process shortcut.
func runE20() (*Table, error) {
	t := &Table{
		ID:      "E20",
		Title:   "Observability plane: LQL over a cluster under churn and migration",
		Claim:   "five canned operator questions (hot objects, per-component load, slowest method with exemplar trace, incarnation history, event timeline) are each one live LQL query away, served over the wire while the cluster churns",
		Columns: []string{"question", "query", "rows", "validated"},
	}

	const baseCalls, hotCalls, churnN = 20, 200, 100

	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      6,
		Clients:              2,
		Obs:                  true,
		TraceSampleEvery:     1,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// Workload: skewed traffic (one hot object), creation churn, and two
	// live migrations of the hot object across hosts.
	hot := s.Flat[0]
	hotID := hot.ID().String()
	for r := 0; r < baseCalls; r++ {
		for i, l := range s.Flat {
			if res, err := s.Clients[i%len(s.Clients)].Call(l, "Work"); err != nil || res.Code != wire.OK {
				return nil, fmt.Errorf("e20: Work(%v): %v / %+v", l, err, res)
			}
		}
	}
	for r := 0; r < hotCalls; r++ {
		if res, err := s.Clients[0].Call(hot, "Work"); err != nil || res.Code != wire.OK {
			return nil, fmt.Errorf("e20: hot Work: %v / %+v", err, res)
		}
	}
	if _, err := s.RunChurn(0, churnN, true); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Two real moves: walk the hot object around the ring starting from
	// wherever load-aware placement first put it.
	jur := s.Sys.Jurisdictions[0]
	cur := 0
	for _, p := range jur.MagistrateImpl().Placements() {
		if p.Object.String() == hotID && p.Active {
			for hi, hl := range jur.Hosts {
				if hl == p.Host {
					cur = hi
				}
			}
		}
	}
	for step := 1; step <= 2; step++ {
		if err := s.MigrateObject(ctx, hot, 0, (cur+step)%len(jur.Hosts)); err != nil {
			return nil, fmt.Errorf("e20: migrate hot object: %w", err)
		}
	}

	mc, err := s.MagClient(0)
	if err != nil {
		return nil, err
	}
	okAll := true
	add := func(question, query string, validate func(rows int, first []string) string) error {
		tab, err := magistrate.Query.Call(ctx, mc, query)
		if err != nil {
			return fmt.Errorf("e20: %s: %w", question, err)
		}
		var first []string
		if len(tab.Rows) > 0 {
			for _, v := range tab.Rows[0] {
				first = append(first, v.String())
			}
		}
		verdict := validate(len(tab.Rows), first)
		if verdict != "yes" {
			okAll = false
		}
		t.Rows = append(t.Rows, []string{question, query, strconv.Itoa(len(tab.Rows)), verdict})
		return nil
	}

	if err := add("what is hot?",
		"select loid, host, calls from objects order by calls desc limit 5",
		func(rows int, first []string) string {
			if rows != 5 {
				return fmt.Sprintf("no: %d rows", rows)
			}
			if first[0] != hotID {
				return "no: top object is " + first[0]
			}
			return "yes"
		}); err != nil {
		return nil, err
	}

	if err := add("where is the load?",
		"select name, value from metrics where name like 'req/%' order by value desc limit 5",
		func(rows int, first []string) string {
			if rows != 5 {
				return fmt.Sprintf("no: %d rows", rows)
			}
			if v, _ := strconv.ParseFloat(first[1], 64); v < float64(hotCalls) {
				return "no: top load " + first[1]
			}
			return "yes"
		}); err != nil {
		return nil, err
	}

	if err := add("what was slow? show the trace",
		"select method, calls, p999, trace from methods order by p999 desc limit 3",
		func(rows int, first []string) string {
			if rows == 0 {
				return "no: empty"
			}
			id, err := strconv.ParseUint(first[3], 16, 64)
			if err != nil {
				return "no: bad trace " + first[3]
			}
			spans := s.Tracer.Trace(id)
			if len(spans) == 0 {
				return "no: trace unresolvable"
			}
			return "yes"
		}); err != nil {
		return nil, err
	}

	if err := add("where has this object lived?",
		"select gen, kind, host from checkpoints where object = "+hotID+" order by gen",
		func(rows int, first []string) string {
			// register + initial activate + one entry per committed move.
			if rows < 4 {
				return fmt.Sprintf("no: %d generations", rows)
			}
			if first[1] != "register" {
				return "no: history starts with " + first[1]
			}
			return "yes"
		}); err != nil {
		return nil, err
	}

	if err := add("what just happened?",
		"select at, kind, object, detail from events where kind = migrate order by at desc limit 10",
		func(rows int, first []string) string {
			if rows == 0 {
				return "no: empty timeline"
			}
			if first[2] != hotID {
				return "no: migrate event for " + first[2]
			}
			return "yes"
		}); err != nil {
		return nil, err
	}

	if okAll {
		t.Finding = "holds: all five operator questions answered live over the wire — hot-object ranking, load attribution, an exemplar trace resolving to recorded spans, full incarnation history, and the migration timeline"
	} else {
		t.Finding = "NOT holding: see 'validated' column"
	}
	return t, nil
}
