// Package health tracks per-destination endpoint health for the
// invocation path. A Tracker observes transport-level outcomes —
// send failures and reply timeouts are failures; ANY reply, even a
// "no such object", proves the endpoint alive — and feeds two
// consumers in rt.Caller:
//
//   - a circuit breaker: after FailureThreshold consecutive failures
//     an endpoint's breaker opens and the caller skips it (failing
//     fast instead of burning a full wave timeout on a dead replica);
//     after OpenDuration one probe is let through half-open, and a
//     success closes the breaker again;
//   - wave ordering: callers prefer endpoints with clean records and
//     lower EWMA reply latency, so replicated addresses (§4.3) route
//     around sick replicas before they fail outright.
//
// The tracker is deliberately shared: all Callers on a node (or in an
// experiment) can point at one Tracker, so the first caller to burn a
// timeout against a crashed host spares every other caller the same
// discovery (cooperative failure detection).
package health

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/oa"
)

// State is a breaker state.
type State uint8

const (
	// Closed: the endpoint is believed healthy; traffic flows.
	Closed State = iota
	// Open: the endpoint exceeded the failure threshold; traffic is
	// skipped until OpenDuration elapses.
	Open
	// HalfOpen: the open period elapsed; a single probe is in flight
	// and its outcome decides between Closed and Open.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Config tunes a Tracker. The zero value is usable; zero fields take
// the defaults documented on each.
type Config struct {
	// FailureThreshold is the number of CONSECUTIVE failures that
	// opens an endpoint's breaker (default 3).
	FailureThreshold int
	// OpenDuration is how long an open breaker rejects traffic before
	// allowing a half-open probe (default 500ms).
	OpenDuration time.Duration
	// Alpha is the EWMA weight given to each new latency sample, in
	// (0,1] (default 0.25).
	Alpha float64
	// Clock supplies the probe-window time base (nil = wall). Virtual
	// clocks make breaker open/half-open transitions deterministic in
	// tests and the DES harness.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenDuration <= 0 {
		c.OpenDuration = 500 * time.Millisecond
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.25
	}
	return c
}

// Tracker holds per-endpoint health state, keyed by oa.Element. All
// methods are safe for concurrent use. Endpoints the tracker has never
// heard about are presumed healthy and cost one lock-free map read to
// ask about, so a Tracker on the warm path adds no contention.
type Tracker struct {
	cfg Config
	m   sync.Map // oa.Element -> *endpointState

	cOpened  *metrics.Counter // health/opened: breaker open transitions
	cSkipped *metrics.Counter // health/skipped: sends suppressed by an open breaker
	cProbes  *metrics.Counter // health/probes: half-open probes admitted

	// notify observes breaker state transitions (open and re-close) —
	// the observability plane's flight recorder hangs off it. Must be
	// cheap and non-blocking; called outside the endpoint lock.
	notify atomic.Pointer[func(e oa.Element, s State)]
}

// SetNotify installs the transition observer (nil disables).
func (t *Tracker) SetNotify(f func(e oa.Element, s State)) {
	if f == nil {
		t.notify.Store(nil)
		return
	}
	t.notify.Store(&f)
}

func (t *Tracker) notifyTransition(e oa.Element, s State) {
	if p := t.notify.Load(); p != nil {
		(*p)(e, s)
	}
}

// NewTracker builds a tracker recording counters into reg (pass
// metrics.Nop or nil to discard them).
func NewTracker(cfg Config, reg *metrics.Registry) *Tracker {
	if reg == nil {
		reg = metrics.Nop
	}
	return &Tracker{
		cfg:      cfg.withDefaults(),
		cOpened:  reg.Counter("health/opened"),
		cSkipped: reg.Counter("health/skipped"),
		cProbes:  reg.Counter("health/probes"),
	}
}

// now reads the tracker's configured clock (wall when unset).
func (t *Tracker) now() time.Time {
	if t.cfg.Clock != nil {
		return t.cfg.Clock.Now()
	}
	return time.Now()
}

type endpointState struct {
	mu          sync.Mutex
	state       State
	consec      int           // consecutive failures
	ewma        time.Duration // reply latency estimate (0 = no sample yet)
	openedUntil time.Time
	probing     bool // a half-open probe is in flight
}

func (t *Tracker) get(e oa.Element) *endpointState {
	if v, ok := t.m.Load(e); ok {
		return v.(*endpointState)
	}
	v, _ := t.m.LoadOrStore(e, &endpointState{})
	return v.(*endpointState)
}

// ReportSuccess records a reply from e (any reply code: even "no such
// object" proves the endpoint itself alive) with the observed reply
// latency. It closes an open or half-open breaker.
func (t *Tracker) ReportSuccess(e oa.Element, latency time.Duration) {
	es := t.get(e)
	es.mu.Lock()
	reopened := es.state != Closed
	es.consec = 0
	es.probing = false
	es.state = Closed
	if latency > 0 {
		if es.ewma == 0 {
			es.ewma = latency
		} else {
			a := t.cfg.Alpha
			es.ewma = time.Duration(a*float64(latency) + (1-a)*float64(es.ewma))
		}
	}
	es.mu.Unlock()
	if reopened {
		t.notifyTransition(e, Closed)
	}
}

// ReportFailure records a send failure or reply timeout against e.
// Reaching the consecutive-failure threshold — or failing a half-open
// probe — opens the breaker.
func (t *Tracker) ReportFailure(e oa.Element) {
	es := t.get(e)
	es.mu.Lock()
	es.consec++
	wasProbe := es.state == HalfOpen
	opened := false
	if wasProbe || es.consec >= t.cfg.FailureThreshold {
		if es.state != Open {
			t.cOpened.Inc()
			opened = true
		}
		es.state = Open
		es.openedUntil = t.now().Add(t.cfg.OpenDuration)
		es.probing = false
	}
	es.mu.Unlock()
	if opened {
		t.notifyTransition(e, Open)
	}
}

// Allow reports whether traffic to e should be attempted now. An open
// breaker whose OpenDuration has elapsed transitions to half-open and
// admits exactly one probe; further asks are rejected until the probe
// resolves via ReportSuccess/ReportFailure.
func (t *Tracker) Allow(e oa.Element) bool {
	v, ok := t.m.Load(e)
	if !ok {
		return true // never heard of it: presumed healthy, no allocation
	}
	es := v.(*endpointState)
	es.mu.Lock()
	defer es.mu.Unlock()
	switch es.state {
	case Closed:
		return true
	case Open:
		if t.now().After(es.openedUntil) {
			es.state = HalfOpen
			es.probing = true
			t.cProbes.Inc()
			return true
		}
		t.cSkipped.Inc()
		return false
	case HalfOpen:
		if !es.probing {
			es.probing = true
			t.cProbes.Inc()
			return true
		}
		t.cSkipped.Inc()
		return false
	}
	return true
}

// StateOf returns e's breaker state (Closed for unknown endpoints).
func (t *Tracker) StateOf(e oa.Element) State {
	v, ok := t.m.Load(e)
	if !ok {
		return Closed
	}
	es := v.(*endpointState)
	es.mu.Lock()
	defer es.mu.Unlock()
	if es.state == Open && t.now().After(es.openedUntil) {
		return HalfOpen
	}
	return es.state
}

// Latency returns the EWMA reply-latency estimate for e (0 if no
// sample has been recorded).
func (t *Tracker) Latency(e oa.Element) time.Duration {
	v, ok := t.m.Load(e)
	if !ok {
		return 0
	}
	es := v.(*endpointState)
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.ewma
}

// Rank orders endpoints for wave preference: lower is healthier.
// 0 = clean closed record, 1 = closed with recent failures,
// 2 = half-open, 3 = open. Unknown endpoints rank 0.
func (t *Tracker) Rank(e oa.Element) int {
	v, ok := t.m.Load(e)
	if !ok {
		return 0
	}
	es := v.(*endpointState)
	es.mu.Lock()
	defer es.mu.Unlock()
	switch es.state {
	case Open:
		if t.now().After(es.openedUntil) {
			return 2
		}
		return 3
	case HalfOpen:
		return 2
	default:
		if es.consec > 0 {
			return 1
		}
		return 0
	}
}

// EndpointHealth is a point-in-time view of one endpoint's record,
// as enumerated by Snapshot (for the breakers LQL table).
type EndpointHealth struct {
	Element     oa.Element
	State       State
	Consecutive int           // consecutive failures
	EWMA        time.Duration // reply latency estimate (0 = no sample)
}

// Snapshot enumerates every endpoint the tracker has heard about,
// sorted by element for stable display. An Open breaker whose window
// has elapsed reads as HalfOpen, matching StateOf.
func (t *Tracker) Snapshot() []EndpointHealth {
	var out []EndpointHealth
	now := t.now()
	t.m.Range(func(k, v any) bool {
		es := v.(*endpointState)
		es.mu.Lock()
		eh := EndpointHealth{
			Element:     k.(oa.Element),
			State:       es.state,
			Consecutive: es.consec,
			EWMA:        es.ewma,
		}
		if eh.State == Open && now.After(es.openedUntil) {
			eh.State = HalfOpen
		}
		es.mu.Unlock()
		out = append(out, eh)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return out[i].Element.String() < out[j].Element.String()
	})
	return out
}
