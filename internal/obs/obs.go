// Package obs is the cluster observability plane. PR 3 gave each
// process tracing, metrics, and a debug surface; obs makes the cluster
// itself queryable: hosts piggyback compact telemetry reports on the
// load-report heartbeat, the Magistrate's plane keeps a ring-buffered
// timeline of per-host epochs and an OPR generation history, a flight
// recorder collects notable events (migrations, failovers, breaker
// transitions, parks/forwards, slow calls), and LQL — a small select
// language — answers questions like "where is object X and what is its
// p99.9" over the merged view. This is the monitoring layer that
// ABS-NET-style adaptation needs (PAPERS.md) and the ROADMAP's
// "queryable control plane" open item.
package obs

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Event kinds — the flight-recorder taxonomy. Kinds are plain strings
// so jurisdiction-specific layers can add their own without touching
// this package; these constants name the ones the runtime emits.
const (
	KindMigrate    = "migrate"    // live-migration phase transitions
	KindFailover   = "failover"   // HostFailed recovery actions
	KindBreaker    = "breaker"    // health breaker state changes
	KindPark       = "park"       // arrival parked during a drain
	KindForward    = "forward"    // parked/tombstoned arrival forwarded
	KindSlowCall   = "slowcall"   // serve latency over the threshold
	KindActivate   = "activate"   // object activation/placement
	KindCheckpoint = "checkpoint" // OPR generation filed
	KindRebalance  = "rebalance"  // rebalancer decisions
)

// Event is one flight-recorder entry.
type Event struct {
	Seq     uint64    // per-recorder sequence number, 1-based
	At      time.Time // local clock of the recording host
	Host    string    // recording process/host name
	Kind    string    // one of the Kind* constants
	Object  string    // subject (LOID text or component label), may be ""
	Detail  string    // human-oriented one-liner
	TraceID uint64    // causal trace, 0 if none
}

func (e Event) String() string {
	id := ""
	if e.TraceID != 0 {
		id = fmt.Sprintf(" trace=%016x", e.TraceID)
	}
	return fmt.Sprintf("%s %s %s %s %s%s",
		e.At.Format("15:04:05.000"), e.Host, e.Kind, e.Object, e.Detail, id)
}

// eventRing is the per-host flight-recorder capacity. Events are rare
// (phase transitions, failures, slow calls), so a thousand entries is
// minutes-to-hours of history.
const eventRing = 1024

// Recorder is the flight recorder: a trace.Ring of events. Record
// claims a sequence number, stamps it into the event and publishes it,
// so writers never block each other or readers, and a nil *Recorder
// discards, so runtime hooks can stay unconditionally wired. Events
// sorts by Seq, so a read racing a lapping writer is still a coherent
// suffix of history.
type Recorder struct {
	host string
	ring *trace.Ring[Event]
}

// NewRecorder builds a recorder stamping events with the given host
// name.
func NewRecorder(host string) *Recorder {
	return &Recorder{host: host, ring: trace.NewRing[Event](eventRing)}
}

// Record appends one event. Safe for concurrent use; nil-receiver
// safe. The event's Seq and At are assigned here.
func (r *Recorder) Record(kind, object, detail string, traceID uint64) {
	if r == nil {
		return
	}
	seq := r.ring.Claim()
	r.ring.Store(seq, &Event{
		Seq:     seq,
		At:      time.Now(),
		Host:    r.host,
		Kind:    kind,
		Object:  object,
		Detail:  detail,
		TraceID: traceID,
	})
}

// Seq returns the number of events ever recorded.
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Written()
}

// Events returns the retained history in sequence order.
func (r *Recorder) Events() []Event {
	return r.EventsSince(0)
}

// EventsSince returns retained events with Seq > since, in sequence
// order — the piggyback path uses it to ship only what the Magistrate
// has not yet seen.
func (r *Recorder) EventsSince(since uint64) []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for _, e := range r.ring.Snapshot() {
		if e.Seq > since {
			out = append(out, *e)
		}
	}
	sortEvents(out)
	return out
}

func sortEvents(es []Event) {
	// Insertion sort: rings are small and nearly ordered.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j-1].Seq > es[j].Seq; j-- {
			es[j-1], es[j] = es[j], es[j-1]
		}
	}
}
