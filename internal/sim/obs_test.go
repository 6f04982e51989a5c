package sim

import (
	"strconv"
	"testing"

	"repro/internal/magistrate"
	"repro/internal/wire"
)

// TestLiveLQLOverTheWire is the observability plane's acceptance
// check: on a three-host cluster with tracing on, the canonical
//
//	legion query "select loid, host, p999 from objects order by p999 desc limit 5"
//
// travels the real invocation path (Caller -> Magistrate "Query"
// dispatch -> Table wire marshal) and returns live rows whose
// exemplar TraceID resolves to recorded spans in the tracer.
func TestLiveLQLOverTheWire(t *testing.T) {
	s, err := Build(Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      6,
		Clients:              2,
		Obs:                  true,
		TraceSampleEvery:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drive traffic so every object has latency stats and exemplars.
	for round := 0; round < 4; round++ {
		for i, l := range s.Flat {
			res, err := s.Clients[i%len(s.Clients)].Call(l, "Work")
			if err != nil || res.Code != wire.OK {
				t.Fatalf("Work(%v): %v / %+v", l, err, res)
			}
		}
	}

	mc, err := s.MagClient(0)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := magistrate.Query.Call(t.Context(), mc, "select loid, host, p999 from objects order by p999 desc limit 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Cols) != 3 || tab.Cols[0] != "loid" || tab.Cols[1] != "host" || tab.Cols[2] != "p999" {
		t.Fatalf("bad columns: %v", tab.Cols)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 rows from 6 live objects, got %d:\n%s", len(tab.Rows), tab.Format())
	}
	for _, row := range tab.Rows {
		if row[0].S == "" || row[1].S == "" {
			t.Fatalf("empty loid/host in live row: %+v", row)
		}
		if row[2].D <= 0 {
			t.Fatalf("p999 not live for %s: %v", row[0].S, row[2].D)
		}
	}
	// Descending order must hold over the wire roundtrip.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i][2].D > tab.Rows[i-1][2].D {
			t.Fatalf("order by p999 desc violated:\n%s", tab.Format())
		}
	}

	// The exemplar trace attached to the slowest call must resolve to
	// real spans, both in the tracer and through the spans table.
	tab, err = magistrate.Query.Call(t.Context(), mc, "select loid, trace from objects")
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, row := range tab.Rows {
		tr := row[1].S
		if tr == "" {
			continue
		}
		id, err := strconv.ParseUint(tr, 16, 64)
		if err != nil {
			t.Fatalf("exemplar trace %q is not 16-hex: %v", tr, err)
		}
		if spans := s.Tracer.Trace(id); len(spans) == 0 {
			t.Fatalf("exemplar trace %s for %s has no recorded spans", tr, row[0].S)
		}
		spans, err := magistrate.Query.Call(t.Context(), mc, "select span from spans where trace = '"+tr+"'")
		if err != nil || len(spans.Rows) == 0 {
			t.Fatalf("exemplar trace %s has no rows in the spans table: %v", tr, err)
		}
		resolved++
	}
	if resolved == 0 {
		t.Fatalf("no object carried a resolvable exemplar trace:\n%s", tab.Format())
	}

	// The methods table aggregates the same traffic per method name.
	tab, err = magistrate.Query.Call(t.Context(), mc, "select method, calls from methods where method = Work")
	if err != nil || len(tab.Rows) != 1 {
		t.Fatalf("methods table: %v\n%+v", err, tab)
	}
	if want := float64(4 * len(s.Flat)); tab.Rows[0][1].F < want {
		t.Fatalf("method Work calls = %v, want >= %v", tab.Rows[0][1].F, want)
	}
}

// TestHostsTableTellsNeverReported: the Magistrate reads a host that
// never sent a load report with a negative age. The hosts table must
// not render it as a host that reported just now.
func TestHostsTableTellsNeverReported(t *testing.T) {
	s, err := Build(Config{HostsPerJurisdiction: 2, Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tab, err := s.Query("select host, age from hosts where reported = false")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("want both silent hosts unreported, got:\n%s", tab.Format())
	}
	if tab, err = s.Query("select host from hosts where reported = true"); err != nil || len(tab.Rows) != 0 {
		t.Fatalf("a host with no load report reads as reported: %v\n%+v", err, tab)
	}
}
