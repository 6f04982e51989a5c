package debughttp

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/sim"
)

func TestMetricsHelpLines(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rt/calls").Inc()
	reg.Histogram("invoke.latency").Observe(time.Millisecond)
	_, body := get(t, Handler(planeWith(reg, nil)), "/metrics")
	for _, want := range []string{
		`# HELP legion_rt_calls legion counter "rt/calls"`,
		"# TYPE legion_rt_calls counter",
		`# HELP legion_invoke_latency legion latency histogram "invoke.latency" (seconds)`,
		"# TYPE legion_invoke_latency histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Every # TYPE line must be preceded by a # HELP line for the same
	// sanitized name.
	lines := strings.Split(body, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if i == 0 || !strings.HasPrefix(lines[i-1], "# HELP "+name+" ") {
			t.Errorf("# TYPE for %s not preceded by its # HELP line", name)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	plane := obs.NewPlane(obs.Config{Host: "test", Registry: metrics.NewRegistry()})
	plane.AddObjectSource(func() []obs.ObjectView {
		return []obs.ObjectView{
			{LOID: "L256.1", Impl: "demo.counter", Host: "L7.1", Active: true},
			{LOID: "L256.2", Impl: "demo.counter", Host: "L7.2", Active: true},
		}
	})
	h := Handler(plane)

	if code, body := get(t, h, "/debug/query"); code != 200 || !strings.Contains(body, "objects") {
		t.Errorf("help page: %d %q", code, body)
	}
	code, body := get(t, h, "/debug/query?q=select+loid,+host+from+objects+order+by+loid")
	if code != 200 {
		t.Fatalf("query status = %d: %s", code, body)
	}
	if !strings.Contains(body, "L256.1") || !strings.Contains(body, "L7.2") {
		t.Errorf("query result:\n%s", body)
	}
	code, body = get(t, h, "/debug/query?q=select+loid+from+objects&format=json")
	if code != 200 {
		t.Fatalf("json query status = %d", code)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) != 2 {
		t.Errorf("json result (%v): %s", err, body)
	}
	if code, body := get(t, h, "/debug/query?q=select+nope+from+objects"); code != 400 ||
		!strings.Contains(body, "query error") {
		t.Errorf("bad query: %d %q", code, body)
	}
	if code, _ := get(t, Handler(nil), "/debug/query?q=select+*+from+hosts"); code != 404 {
		t.Errorf("no-plane status = %d, want 404", code)
	}
	if code, body := get(t, h, "/"); code != 200 || !strings.Contains(body, "breakers spans obs") {
		t.Errorf("index does not list the LQL tables: %d %q", code, body)
	}
}

// TestEventsEndpoint: the merged flight-recorder timeline is the
// events table.
func TestEventsEndpoint(t *testing.T) {
	plane := obs.NewPlane(obs.Config{Host: "test"})
	plane.Record(obs.KindMigrate, "L256.1", "prepared h1 -> h2", 0)
	plane.Record(obs.KindFailover, "L7.1", "host failed", 0)
	code, body := query(t, Handler(plane), "select kind, object, detail from events", "")
	if code != 200 {
		t.Fatalf("events status = %d", code)
	}
	if n := strings.Count(body, "\n") - 2; n != 2 {
		t.Errorf("%d flight-recorder events, want 2:\n%s", n, body)
	}
	for _, want := range []string{"migrate", "prepared h1 -> h2", "failover"} {
		if !strings.Contains(body, want) {
			t.Errorf("events body missing %q:\n%s", want, body)
		}
	}
	if code, _ := query(t, Handler(nil), "select * from events", ""); code != 404 {
		t.Errorf("no-plane status = %d, want 404", code)
	}
}

// TestDebugSurfaceUnderChurn scrapes the breakers, events, spans,
// hosts and placements tables through /debug/query while live
// migrations, rebalancer rounds, and breaker transitions run
// underneath — the debug surface must stay lock-safe against the
// machinery it observes (run with -race).
func TestDebugSurfaceUnderChurn(t *testing.T) {
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 2,
		ObjectsPerClass:      4,
		LoadReportEvery:      10 * time.Millisecond,
		Obs:                  true,
		TraceSampleEvery:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tracker := s.EnableHealth(health.Config{FailureThreshold: 2, OpenDuration: 5 * time.Millisecond})
	h := Handler(s.Plane)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churn: migrate every object between the two hosts, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l := s.Flat[i%len(s.Flat)]
			_ = s.MigrateObject(context.Background(), l, 0, i%2)
		}
	}()
	// Rebalancer rounds race the migrations.
	reb, err := s.NewRebalancer(0)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = reb.RoundNow(context.Background())
			}
		}
	}()
	// Breaker transitions under the breakers scrapes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e := oa.MemElement(uint64(i%3 + 1))
			if i%5 == 0 {
				tracker.ReportSuccess(e, time.Millisecond)
			} else {
				tracker.ReportFailure(e)
			}
		}
	}()

	deadline := time.After(1500 * time.Millisecond)
	paths := []string{
		"/debug/query?q=select+*+from+breakers",
		"/debug/query?q=select+*+from+events",
		"/debug/query?q=select+*+from+spans",
		"/debug/query?q=select+*+from+obs",
		"/debug/query?q=select+loid,+host,+active+from+placements",
		"/debug/query?q=select+*+from+hosts",
		"/metrics",
	}
scrape:
	for i := 0; ; i++ {
		select {
		case <-deadline:
			break scrape
		default:
		}
		if code, body := get(t, h, paths[i%len(paths)]); code != 200 {
			t.Errorf("%s = %d: %s", paths[i%len(paths)], code, body)
			break
		}
	}
	close(stop)
	wg.Wait()
}
