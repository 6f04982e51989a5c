// Package debughttp is the live observability surface: an opt-in HTTP
// listener over one observability plane. It exposes the plane's
// metrics registry in Prometheus text format, LQL queries over every
// plane table (placements, hosts, events, breakers, spans, ...), and
// the stdlib pprof and expvar handlers. It is wired into legiond
// behind -debug-addr and is off by default — the invocation fast path
// never pays for it.
//
// Everything here reads snapshots (Registry.Counters/Histograms and
// the plane's tables): a scrape never takes a lock the invocation path
// contends on.
package debughttp

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Handler builds the debug mux over plane (a nil plane serves an empty
// /metrics and a 404 /debug/query):
//
//	/               — index of everything below, with the LQL tables
//	/metrics        — Prometheus text exposition
//	/debug/query    — LQL over the plane (?q=<lql>; &format=json for
//	                  machine output, &format=chrome on a spans query
//	                  for Chrome trace-event JSON)
//	/debug/pprof/   — stdlib profiles
//	/debug/vars     — expvar JSON
func Handler(plane *obs.Plane) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "legion debug surface\n\n"+
			"/metrics        Prometheus text metrics\n"+
			"/debug/query    LQL query (?q=select+*+from+hosts&format=json|chrome)\n"+
			"/debug/pprof/   runtime profiles\n"+
			"/debug/vars     expvar JSON\n\n"+
			"LQL tables: %s\n", strings.Join(plane.Tables(), " "))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, plane.Registry())
	})
	mux.HandleFunc("/debug/query", func(w http.ResponseWriter, r *http.Request) {
		serveQuery(w, r, plane)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// Serve listens on addr and serves Handler(plane) until the listener
// fails. It returns the bound address (useful with a ":0" addr) and a
// stop function. Serving starts before Serve returns.
func Serve(addr string, plane *obs.Plane) (bound string, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(plane)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// promName sanitizes a registry name ("rt/calls", "invoke.latency")
// into the Prometheus name space: [a-zA-Z0-9_:], leading digit
// prefixed.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return "legion_" + b.String()
}

func writeMetrics(w http.ResponseWriter, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for _, c := range reg.Counters() {
		n := promName(c.Name)
		fmt.Fprintf(w, "# HELP %s legion counter %q\n", n, c.Name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, h := range reg.Histograms() {
		n := promName(h.Name)
		fmt.Fprintf(w, "# HELP %s legion latency histogram %q (seconds)\n", n, h.Name)
		fmt.Fprintf(w, "# TYPE %s histogram\n", n)
		var cum uint64
		for i, cnt := range h.Stats.Buckets {
			cum += cnt
			if cnt == 0 && i != len(h.Stats.Buckets)-1 {
				continue // keep the exposition short; cumulative stays right
			}
			bound := metrics.BucketBound(i)
			le := "+Inf"
			if bound >= 0 {
				le = strconv.FormatFloat(bound.Seconds(), 'g', -1, 64)
			}
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, le, cum)
		}
		fmt.Fprintf(w, "%s_sum %g\n", n, h.Stats.Sum.Seconds())
		fmt.Fprintf(w, "%s_count %d\n", n, h.Stats.Count)
	}
}

func serveQuery(w http.ResponseWriter, r *http.Request, p *obs.Plane) {
	if p == nil {
		http.Error(w, "no observability plane installed", http.StatusNotFound)
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		fmt.Fprintf(w, "LQL query endpoint; pass ?q=<query>\n\n"+
			"tables: %s\n\n"+
			"example: /debug/query?q=select loid, host, p999 from objects order by p999 desc limit 5\n",
			strings.Join(p.Tables(), " "))
		return
	}
	t, err := p.Query(q)
	if err != nil {
		http.Error(w, "query error: "+err.Error(), http.StatusBadRequest)
		return
	}
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(t.JSON())
	case "chrome":
		out, err := p.ChromeJSON(t)
		if err != nil {
			http.Error(w, "query error: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out)
	default:
		fmt.Fprint(w, t.Format())
	}
}
