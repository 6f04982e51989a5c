package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config names what a Plane observes.
type Config struct {
	// Host names this process in recorded events.
	Host string
	// Registry is the process's live metrics (required for useful
	// queries; nil reads as empty).
	Registry *metrics.Registry
	// Tracer serves the spans table and resolves exemplar TraceIDs
	// locally (may be nil).
	Tracer *trace.Tracer
}

// ObjectView is one placement row a metadata source contributes.
type ObjectView struct {
	LOID   string
	Impl   string
	Host   string
	Active bool
}

// StoreView is one jurisdiction-store summary row a metadata source
// contributes: which backend holds the OPRs and how healthy it is
// (quarantined = corrupt records moved aside by recovery).
type StoreView struct {
	Backend     string
	Records     int
	Segments    int
	Quarantined int
}

// HostView is one host-health row a metadata source contributes.
type HostView struct {
	Host      string
	Score     float64
	Residents uint64
	Rate      uint64 // dispatches/sec from the load vector
	Mailbox   uint64
	Dirty     uint64
	Age       time.Duration // staleness of the last heartbeat; negative if the host never reported
}

// Epoch is one entry of the cluster timeline: a host heartbeat with
// its health terms, ring-buffered so "what was host H doing two
// minutes ago" stays answerable.
type Epoch struct {
	Host      string
	At        time.Time
	Score     float64
	Residents uint64
	Rate      uint64
	Mailbox   uint64
}

// Generation is one entry of an object's OPR history: every
// checkpoint, registration, promotion, or deactivation the Magistrate
// filed for it (Weaver-style object history, PAPERS.md).
type Generation struct {
	Object string
	Gen    int
	At     time.Time
	Kind   string // register | checkpoint | promote | deactivate | activate | migrate
	Host   string
	Bytes  int
}

// maxGensPerObject bounds each object's retained OPR history.
const maxGensPerObject = 64

// Ring capacities: the cluster timeline and the merged remote
// flight-recorder history.
const (
	epochRing       = 256
	remoteEventRing = 4096
)

// remoteHost is the plane's view of one telemetry-reporting host.
type remoteHost struct {
	counters map[string]uint64
	hists    map[string]metrics.HistStats
	lastAt   time.Time
}

// Plane is the cluster observability hub that lives next to a
// Magistrate (or alone in a client process). It merges the local
// registry with ingested remote telemetry, keeps the flight recorder,
// the epoch timeline, and the OPR generation history, and serves LQL
// queries over the result. All methods are safe for concurrent use
// and nil-receiver safe, so wiring it everywhere is free when off.
type Plane struct {
	host         string
	reg          *metrics.Registry
	tr           *trace.Tracer
	rec          *Recorder
	ob           *NodeObserver
	epochs       *trace.Ring[Epoch]
	remoteEvents *trace.Ring[Event]

	mu         sync.Mutex
	health     *health.Tracker
	remotes    map[string]*remoteHost
	gens       map[string][]Generation
	genCount   map[string]int
	objectSrcs []func() []ObjectView
	hostSrcs   []func() []HostView
	storeSrcs  []func() StoreView
}

// NewPlane builds a plane.
func NewPlane(cfg Config) *Plane {
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	rec := NewRecorder(cfg.Host)
	return &Plane{
		host:         cfg.Host,
		reg:          cfg.Registry,
		tr:           cfg.Tracer,
		rec:          rec,
		ob:           NewNodeObserver(cfg.Registry, rec),
		epochs:       trace.NewRing[Epoch](epochRing),
		remoteEvents: trace.NewRing[Event](remoteEventRing),
		remotes:      make(map[string]*remoteHost),
		gens:         make(map[string][]Generation),
		genCount:     make(map[string]int),
	}
}

// SetHealth gives the plane the process's breaker tracker, which the
// breakers table reads. nil detaches it.
func (p *Plane) SetHealth(t *health.Tracker) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.health = t
	p.mu.Unlock()
}

// Recorder returns the plane's local flight recorder (nil-safe).
func (p *Plane) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Observer returns the rt.Observer to install on this process's nodes
// (nil when the plane is nil, which rt treats as disabled).
func (p *Plane) Observer() *NodeObserver {
	if p == nil {
		return nil
	}
	return p.ob
}

// Registry returns the plane's local registry.
func (p *Plane) Registry() *metrics.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// Tracer returns the plane's tracer (may be nil).
func (p *Plane) Tracer() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

// Record logs one event to the local flight recorder (nil-safe).
func (p *Plane) Record(kind, object, detail string, traceID uint64) {
	if p == nil {
		return
	}
	p.rec.Record(kind, object, detail, traceID)
}

// AddObjectSource registers a live placements provider (a Magistrate's
// table, typically). Multiple jurisdictions each add one.
func (p *Plane) AddObjectSource(f func() []ObjectView) {
	if p == nil || f == nil {
		return
	}
	p.mu.Lock()
	p.objectSrcs = append(p.objectSrcs, f)
	p.mu.Unlock()
}

// AddHostSource registers a live host-load provider.
func (p *Plane) AddHostSource(f func() []HostView) {
	if p == nil || f == nil {
		return
	}
	p.mu.Lock()
	p.hostSrcs = append(p.hostSrcs, f)
	p.mu.Unlock()
}

// AddStoreSource registers a jurisdiction-store stats provider; the
// checkpoints LQL table leads with one summary row per store.
func (p *Plane) AddStoreSource(f func() StoreView) {
	if p == nil || f == nil {
		return
	}
	p.mu.Lock()
	p.storeSrcs = append(p.storeSrcs, f)
	p.mu.Unlock()
}

// NoteLoad records one host heartbeat into the epoch timeline; the
// Magistrate calls it from its ReportLoad intake.
func (p *Plane) NoteLoad(host string, score float64, residents, rate, mailbox uint64) {
	if p == nil {
		return
	}
	p.epochs.Put(&Epoch{
		Host: host, At: time.Now(), Score: score,
		Residents: residents, Rate: rate, Mailbox: mailbox,
	})
}

// Ingest merges one host's piggybacked telemetry report into the
// plane: absolute counters and histogram snapshots displace that
// host's previous ones; events append to the merged remote history.
func (p *Plane) Ingest(host string, b []byte) error {
	if p == nil || len(b) == 0 {
		return nil
	}
	rp, err := UnmarshalReport(b)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rh := p.remotes[host]
	if rh == nil {
		rh = &remoteHost{counters: make(map[string]uint64), hists: make(map[string]metrics.HistStats)}
		p.remotes[host] = rh
	}
	rh.lastAt = time.Now()
	for _, c := range rp.Counters {
		rh.counters[c.Name] = c.Value
	}
	for i := range rp.Hists {
		rh.hists[rp.Hists[i].Name] = rp.Hists[i].Stats()
	}
	for _, e := range rp.Events {
		if e.Host == "" {
			e.Host = host
		}
		p.remoteEvents.Put(&e)
	}
	return nil
}

// NoteGeneration appends one entry to an object's OPR history.
func (p *Plane) NoteGeneration(object, kind, host string, bytes int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.genCount[object]++
	g := Generation{
		Object: object,
		Gen:    p.genCount[object],
		At:     time.Now(),
		Kind:   kind,
		Host:   host,
		Bytes:  bytes,
	}
	gs := append(p.gens[object], g)
	if len(gs) > maxGensPerObject {
		gs = gs[len(gs)-maxGensPerObject:]
	}
	p.gens[object] = gs
	p.mu.Unlock()
}

// Generations returns an object's retained OPR history.
func (p *Plane) Generations(object string) []Generation {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Generation(nil), p.gens[object]...)
}

// Events returns the merged flight-recorder history — local events
// plus everything ingested from remote hosts — in time order.
func (p *Plane) Events() []Event {
	if p == nil {
		return nil
	}
	out := p.rec.Events()
	for _, e := range p.remoteEvents.Snapshot() {
		out = append(out, *e)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Epochs returns the retained cluster timeline in time order.
func (p *Plane) Epochs() []Epoch {
	if p == nil {
		return nil
	}
	var out []Epoch
	for _, e := range p.epochs.Snapshot() {
		out = append(out, *e)
	}
	return out
}

// counterValue merges a counter across the local registry and every
// reporting remote host. Callers hold no plane lock.
func (p *Plane) counterValue(name string) uint64 {
	v := p.reg.CounterValue(name)
	p.mu.Lock()
	for _, rh := range p.remotes {
		v += rh.counters[name]
	}
	p.mu.Unlock()
	return v
}

// mergedCounters returns every counter name with its cluster-wide sum.
func (p *Plane) mergedCounters() []metrics.NamedValue {
	sums := make(map[string]uint64)
	for _, c := range p.reg.Counters() {
		sums[c.Name] += c.Value
	}
	p.mu.Lock()
	for _, rh := range p.remotes {
		for name, v := range rh.counters {
			sums[name] += v
		}
	}
	p.mu.Unlock()
	out := make([]metrics.NamedValue, 0, len(sums))
	for name, v := range sums {
		out = append(out, metrics.NamedValue{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mergedHists returns every histogram with prefix, merged cluster-wide.
func (p *Plane) mergedHists(prefix string) []metrics.NamedHist {
	merged := make(map[string]metrics.HistStats)
	for _, nh := range p.reg.Histograms() {
		if strings.HasPrefix(nh.Name, prefix) {
			merged[nh.Name] = nh.Stats
		}
	}
	p.mu.Lock()
	for _, rh := range p.remotes {
		for name, st := range rh.hists {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			if cur, ok := merged[name]; ok {
				cur.Merge(st)
				merged[name] = cur
			} else {
				merged[name] = st
			}
		}
	}
	p.mu.Unlock()
	out := make([]metrics.NamedHist, 0, len(merged))
	for name, st := range merged {
		out = append(out, metrics.NamedHist{Name: name, Stats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// histStats merges one histogram by exact name.
func (p *Plane) histStats(name string) metrics.HistStats {
	st := p.reg.HistogramSnapshot(name)
	p.mu.Lock()
	for _, rh := range p.remotes {
		if rst, ok := rh.hists[name]; ok {
			st.Merge(rst)
		}
	}
	p.mu.Unlock()
	return st
}

// Query parses and evaluates one LQL query against the plane.
func (p *Plane) Query(q string) (*Table, error) {
	if p == nil {
		return nil, fmt.Errorf("obs: no observability plane configured")
	}
	return RunQuery(p, q)
}

// Tables lists the plane's queryable tables (Source).
func (p *Plane) Tables() []string {
	return []string{"objects", "placements", "hosts", "events", "checkpoints", "methods", "metrics", "epochs",
		"breakers", "spans", "obs"}
}

// Table materializes one base table (Source).
func (p *Plane) Table(name string) (*Table, error) {
	switch name {
	case "objects":
		return p.objectsTable(true), nil
	case "placements":
		return p.objectsTable(false), nil
	case "hosts":
		return p.hostsTable(), nil
	case "events":
		return p.eventsTable(), nil
	case "checkpoints":
		return p.checkpointsTable(), nil
	case "methods":
		return p.methodsTable(), nil
	case "metrics":
		return p.metricsTable(), nil
	case "epochs":
		return p.epochsTable(), nil
	case "breakers":
		return p.breakersTable(), nil
	case "spans":
		return p.spansTable(), nil
	case "obs":
		return p.obsTable(), nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

func (p *Plane) objectViews() []ObjectView {
	p.mu.Lock()
	srcs := append([]func() []ObjectView(nil), p.objectSrcs...)
	p.mu.Unlock()
	seen := make(map[string]int)
	var out []ObjectView
	for _, src := range srcs {
		for _, v := range src() {
			if i, ok := seen[v.LOID]; ok {
				// Prefer the active record when jurisdictions disagree
				// (an in-flight migration's transient double).
				if v.Active && !out[i].Active {
					out[i] = v
				}
				continue
			}
			seen[v.LOID] = len(out)
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LOID < out[j].LOID })
	return out
}

// objectsTable builds the objects (with latency stats) or placements
// (metadata only) table. Per-object stats join on the "obj/<loid>"
// component label the Host Object spawns residents under.
func (p *Plane) objectsTable(withStats bool) *Table {
	t := &Table{Cols: []string{"loid", "impl", "host", "active"}}
	if withStats {
		t.Cols = append(t.Cols, "calls", "p50", "p99", "p999", "max", "trace")
	}
	for _, v := range p.objectViews() {
		row := []Value{Str(v.LOID), Str(v.Impl), Str(v.Host), Bool(v.Active)}
		if withStats {
			calls := p.counterValue("req/obj/" + v.LOID)
			st := p.histStats("lat/obj/" + v.LOID)
			tr := ""
			if ex, ok := st.Exemplar(); ok {
				tr = formatTrace(ex.TraceID)
			}
			row = append(row, Num(float64(calls)),
				Dur(st.P50), Dur(st.P99), Dur(st.P999), Dur(st.Max), Str(tr))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func (p *Plane) hostsTable() *Table {
	p.mu.Lock()
	srcs := append([]func() []HostView(nil), p.hostSrcs...)
	p.mu.Unlock()
	// A host that never reported has no age: it reads 0 with reported
	// false, so "age > 1s" alone cannot mistake it for a fresh one.
	t := &Table{Cols: []string{"host", "score", "residents", "rate", "mailbox", "dirty", "age", "reported"}}
	seen := make(map[string]bool)
	for _, src := range srcs {
		for _, h := range src() {
			if seen[h.Host] {
				continue
			}
			seen[h.Host] = true
			t.Rows = append(t.Rows, []Value{
				Str(h.Host), Num(h.Score), Num(float64(h.Residents)),
				Num(float64(h.Rate)), Num(float64(h.Mailbox)),
				Num(float64(h.Dirty)), Dur(max(h.Age, 0)), Bool(h.Age >= 0),
			})
		}
	}
	return t
}

func (p *Plane) eventsTable() *Table {
	t := &Table{Cols: []string{"at", "host", "kind", "object", "detail", "trace"}}
	for _, e := range p.Events() {
		t.Rows = append(t.Rows, []Value{
			TimeOf(e.At), Str(e.Host), Str(e.Kind), Str(e.Object),
			Str(e.Detail), Str(formatTrace(e.TraceID)),
		})
	}
	return t
}

func (p *Plane) checkpointsTable() *Table {
	p.mu.Lock()
	var all []Generation
	for _, gs := range p.gens {
		all = append(all, gs...)
	}
	srcs := append([]func() StoreView(nil), p.storeSrcs...)
	p.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Object != all[j].Object {
			return all[i].Object < all[j].Object
		}
		return all[i].Gen < all[j].Gen
	})
	t := &Table{Cols: []string{"object", "gen", "kind", "host", "bytes", "at",
		"backend", "segments", "quarantined"}}
	// One summary row per jurisdiction store leads the table: the OPR
	// histories below all live in these backends.
	for i, f := range srcs {
		v := f()
		t.Rows = append(t.Rows, []Value{
			Str(fmt.Sprintf("(store/%d)", i)), Num(0), Str("store"), Str(""),
			Num(float64(v.Records)), TimeOf(time.Now()),
			Str(v.Backend), Num(float64(v.Segments)), Num(float64(v.Quarantined)),
		})
	}
	for _, g := range all {
		t.Rows = append(t.Rows, []Value{
			Str(g.Object), Num(float64(g.Gen)), Str(g.Kind), Str(g.Host),
			Num(float64(g.Bytes)), TimeOf(g.At),
			Str(""), Num(0), Num(0),
		})
	}
	return t
}

func (p *Plane) methodsTable() *Table {
	t := &Table{Cols: []string{"method", "calls", "p50", "p99", "p999", "max", "trace"}}
	for _, nh := range p.mergedHists("method/") {
		tr := ""
		if ex, ok := nh.Stats.Exemplar(); ok {
			tr = formatTrace(ex.TraceID)
		}
		t.Rows = append(t.Rows, []Value{
			Str(strings.TrimPrefix(nh.Name, "method/")), Num(float64(nh.Stats.Count)),
			Dur(nh.Stats.P50), Dur(nh.Stats.P99), Dur(nh.Stats.P999),
			Dur(nh.Stats.Max), Str(tr),
		})
	}
	return t
}

func (p *Plane) metricsTable() *Table {
	t := &Table{Cols: []string{"name", "value"}}
	for _, c := range p.mergedCounters() {
		t.Rows = append(t.Rows, []Value{Str(c.Name), Num(float64(c.Value))})
	}
	return t
}

func (p *Plane) epochsTable() *Table {
	t := &Table{Cols: []string{"at", "host", "score", "residents", "rate", "mailbox"}}
	for _, e := range p.Epochs() {
		t.Rows = append(t.Rows, []Value{
			TimeOf(e.At), Str(e.Host), Num(e.Score),
			Num(float64(e.Residents)), Num(float64(e.Rate)), Num(float64(e.Mailbox)),
		})
	}
	return t
}

// breakersTable shows the health tracker's breakers, sickest first.
func (p *Plane) breakersTable() *Table {
	p.mu.Lock()
	h := p.health
	p.mu.Unlock()
	t := &Table{Cols: []string{"element", "state", "consec", "ewma"}}
	if h == nil {
		return t
	}
	snap := h.Snapshot()
	sort.SliceStable(snap, func(i, j int) bool { return snap[i].State > snap[j].State })
	for _, eh := range snap {
		t.Rows = append(t.Rows, []Value{
			Str(eh.Element.String()), Str(eh.State.String()),
			Num(float64(eh.Consecutive)), Dur(eh.EWMA),
		})
	}
	return t
}

// spansTable shows the tracer's retained spans, oldest first. A root
// span's parent is "".
func (p *Plane) spansTable() *Table {
	t := &Table{Cols: []string{"trace", "span", "parent", "kind", "name", "component", "start", "dur", "outcome"}}
	for _, s := range p.tr.Spans() {
		sc := s.Context()
		t.Rows = append(t.Rows, []Value{
			Str(formatTrace(sc.TraceID)), Str(formatTrace(sc.SpanID)), Str(formatTrace(sc.ParentSpanID)),
			Str(s.Kind), Str(s.Name), Str(s.Component), TimeOf(s.Start), Dur(s.Duration()), Str(s.Outcome),
		})
	}
	return t
}

// ChromeJSON renders the spans a spans query selected as Chrome
// trace-event JSON (trace.ChromeJSON); the query must keep the span
// column.
func (p *Plane) ChromeJSON(t *Table) ([]byte, error) {
	ci := t.colIndex("span")
	if ci < 0 {
		return nil, fmt.Errorf("obs: chrome format needs a spans query that keeps the span column")
	}
	want := make(map[string]bool, len(t.Rows))
	for _, row := range t.Rows {
		want[row[ci].S] = true
	}
	var spans []*trace.Span
	for _, s := range p.Tracer().Spans() {
		if want[formatTrace(s.Context().SpanID)] {
			spans = append(spans, s)
		}
	}
	return trace.ChromeJSON(spans)
}

// obsTable reports the plane's own bounded histories: one row per
// ring, with what wrap-around has overwritten.
func (p *Plane) obsTable() *Table {
	t := &Table{Cols: []string{"name", "capacity", "written", "overwritten"}}
	t.Rows = append(t.Rows, ringRow("events", p.rec.ring), ringRow("remote-events", p.remoteEvents),
		ringRow("epochs", p.epochs))
	if r := p.tr.Ring(); r != nil {
		t.Rows = append(t.Rows, ringRow("spans", r))
	}
	return t
}

func ringRow[T any](name string, r *trace.Ring[T]) []Value {
	return []Value{Str(name), Num(float64(r.Cap())), Num(float64(r.Written())), Num(float64(r.Overwritten()))}
}
