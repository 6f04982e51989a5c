package debughttp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/trace"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// query runs one LQL query through /debug/query.
func query(t *testing.T, h http.Handler, q, format string) (int, string) {
	t.Helper()
	path := "/debug/query?q=" + url.QueryEscape(q)
	if format != "" {
		path += "&format=" + format
	}
	return get(t, h, path)
}

// planeWith builds a plane over reg (and tr, which may be nil).
func planeWith(reg *metrics.Registry, tr *trace.Tracer) *obs.Plane {
	return obs.NewPlane(obs.Config{Host: "test", Registry: reg, Tracer: tr})
}

func TestMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("rt/calls").Add(7)
	reg.Histogram("invoke.latency").Observe(3 * time.Millisecond)
	reg.Histogram("invoke.latency").Observe(900 * time.Millisecond)

	code, body := get(t, Handler(planeWith(reg, nil)), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		"# TYPE legion_rt_calls counter",
		"legion_rt_calls 7",
		"# TYPE legion_invoke_latency histogram",
		"legion_invoke_latency_count 2",
		`legion_invoke_latency_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
	// Bucket cumulative counts must be monotonic and end at Count.
	var last uint64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "legion_invoke_latency_bucket") {
			continue
		}
		var v uint64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = v
	}
	if last != 2 {
		t.Errorf("final bucket = %d, want 2", last)
	}
}

// fmtSscan pulls the trailing integer off a "name{...} N" line.
func fmtSscan(line string, v *uint64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseUint(line[i+1:])
	return 1, err
}

func parseUint(s string) (uint64, error) {
	var v uint64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, &parseErr{s}
		}
		v = v*10 + uint64(r-'0')
	}
	return v, nil
}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return "not a uint: " + e.s }

// TestTracesEndpoint: the trace list, one trace's spans and its Chrome
// export are spans queries.
func TestTracesEndpoint(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1})
	root := tr.Root("call", "Work", "client-0")
	child := tr.Child(root.Context(), "serve", "Work", "host-1")
	child.Event("cache", "hit")
	child.Finish("OK")
	root.Finish("OK")
	id := hex(root.Context().TraceID)

	h := Handler(planeWith(nil, tr))

	code, body := query(t, h, "select trace, name from spans where parent = ''", "json")
	var roots []map[string]any
	if err := json.Unmarshal([]byte(body), &roots); code != 200 || err != nil || len(roots) != 1 || roots[0]["trace"] != id {
		t.Fatalf("trace list: %d %v %q", code, err, body)
	}

	code, body = query(t, h, "select * from spans where trace = '"+id+"' order by start", "")
	if code != 200 {
		t.Fatalf("one trace's spans status = %d: %s", code, body)
	}
	for _, want := range []string{"client-0", "host-1"} {
		if !strings.Contains(body, want) {
			t.Errorf("trace spans missing %q in:\n%s", want, body)
		}
	}

	code, body = query(t, h, "select span from spans where trace = '"+id+"'", "chrome")
	if code != 200 {
		t.Fatalf("chrome export status = %d: %s", code, body)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	want, _ := trace.ChromeJSON(tr.Trace(root.Context().TraceID))
	if !strings.Contains(body, "cache: hit") || len(body) != len(want) {
		t.Errorf("chrome export is not trace.ChromeJSON of the trace:\n%s\nwant\n%s", body, want)
	}
	if code, _ := query(t, h, "select trace from spans", "chrome"); code != 400 {
		t.Errorf("chrome export without the span column: status %d, want 400", code)
	}

	if _, body := query(t, h, "select * from spans where trace = 'ffffffffffffffff'", "json"); body != "[]" {
		t.Errorf("unknown trace id: %q, want no rows", body)
	}
	if _, body := query(t, Handler(planeWith(nil, nil)), "select * from spans", "json"); body != "[]" {
		t.Errorf("no-tracer spans: %q, want no rows", body)
	}
}

func hex(v uint64) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = digits[v&0xf]
		v >>= 4
	}
	return string(out)
}

// TestHealthEndpoint: breaker state is the breakers table.
func TestHealthEndpoint(t *testing.T) {
	tr := health.NewTracker(health.Config{FailureThreshold: 1, OpenDuration: time.Minute}, nil)
	tr.ReportSuccess(oa.MemElement(1), 2*time.Millisecond)
	tr.ReportFailure(oa.MemElement(2))
	plane := planeWith(nil, nil)
	plane.SetHealth(tr)

	code, body := query(t, Handler(plane), "select * from breakers", "")
	if code != 200 {
		t.Fatalf("breakers status = %d", code)
	}
	if strings.Count(body, "\n") != 2+2 || // header, rule, 2 endpoints
		!strings.Contains(body, "open") || !strings.Contains(body, "closed") {
		t.Errorf("breakers body:\n%s", body)
	}
	// Sickest-first ordering: the open breaker line precedes the closed.
	if strings.Index(body, "open") > strings.Index(body, "closed") {
		t.Errorf("open breaker not listed first:\n%s", body)
	}
}

// TestPlacementsEndpoint: host loads and object placements are the
// hosts and placements tables.
func TestPlacementsEndpoint(t *testing.T) {
	plane := planeWith(nil, nil)
	h := Handler(plane)
	if code, body := query(t, h, "select * from placements", "json"); code != 200 || body != "[]" {
		t.Errorf("no source: %d %q", code, body)
	}
	plane.AddHostSource(func() []obs.HostView {
		return []obs.HostView{
			{Host: "L7.1", Residents: 3, Mailbox: 2, Rate: 41, Score: 3.7, Age: 120 * time.Millisecond},
			{Host: "L7.2", Residents: 0, Age: -1},
		}
	})
	plane.AddObjectSource(func() []obs.ObjectView {
		return []obs.ObjectView{
			{LOID: "L256.1", Impl: "demo.counter", Host: "L7.1", Active: true},
			{LOID: "L256.2", Impl: "demo.counter", Active: false},
		}
	})
	code, body := query(t, h, "select host, age, reported from hosts", "")
	if code != 200 {
		t.Fatalf("hosts status = %d", code)
	}
	for _, want := range []string{"L7.1", "120ms", "true", "L7.2", "false"} {
		if !strings.Contains(body, want) {
			t.Errorf("hosts body missing %q:\n%s", want, body)
		}
	}
	code, body = query(t, h, "select loid, impl, active, host from placements", "")
	if code != 200 {
		t.Fatalf("placements status = %d", code)
	}
	for _, want := range []string{"L256.1", "demo.counter", "true", "L7.1", "L256.2", "false"} {
		if !strings.Contains(body, want) {
			t.Errorf("placements body missing %q:\n%s", want, body)
		}
	}
}

func TestPprofAndVars(t *testing.T) {
	h := Handler(nil)
	if code, body := get(t, h, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, body := get(t, h, "/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d %q", code, body[:min(len(body), 80)])
	}
}

func TestServeBindsAndStops(t *testing.T) {
	addr, stop, err := Serve("127.0.0.1:0", planeWith(metrics.NewRegistry(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("live /metrics status = %d", resp.StatusCode)
	}
}
