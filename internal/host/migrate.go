// Planned exits, host side, each verb for a set of residents:
// DrainObjects drains each to a quiesce point with new arrivals parked,
// ReopenObjects replays the parked calls locally, and EvictObjects kills
// the local incarnations, first turning each park queue into a one-hop
// forwarding tombstone when given the objects' new address. The
// Magistrate drives the phases and owns the only authoritative copy of
// "where the object is" — the host never decides an exit's outcome.
//
// The same file carries the host's load vector: the heartbeat report
// Scheduling Agents and the Magistrate's placement policy consume.
package host

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

// tombstoneTTL bounds how long a source host forwards for a migrated
// object. After the TTL, stale callers get the ordinary
// ErrNoSuchObject verdict and refresh through the Magistrate; by then
// every active caller has been re-pointed by the reply-address hint.
const tombstoneTTL = 30 * time.Second

// drain parks l's arrivals and drains its mailbox to a quiesce point,
// returning its OPR with the object still alive (but gated) locally:
// DrainObjects, and the first half of every stop, so every planned exit
// of a running object starts here. The SaveState that defines the
// quiesce point is sent through the object's own mailbox AFTER the gate
// is up, so it serializes behind every already-accepted call, and it
// lands despite the gate because the host's identity is the gate's
// exempt caller. A failed drain reopens the object.
func (h *Host) drain(ctx context.Context, l loid.LOID) (persist.OPR, error) {
	h.mu.Lock()
	r, ok := h.running[l.Ident()]
	h.mu.Unlock()
	if !ok {
		return persist.OPR{}, fmt.Errorf("host %v does not run %v", h.self, l)
	}
	if err := h.node.Park(l, h.self); err != nil {
		return persist.OPR{}, err
	}
	clk := h.node.Clock()
	t0 := clk.Now()
	state, err := h.saveState(ctx, l)
	if err != nil {
		h.node.Unpark(l)
		return persist.OPR{}, fmt.Errorf("host %v: drain %v: %w", h.self, l, err)
	}
	h.node.Registry().Histogram("mig/drain").Observe(clk.Since(t0))
	return persist.OPR{LOID: l, Impl: r.impl, State: state}, nil
}

// saveState asks l for its state through l's own mailbox, so the save
// serializes after every call already accepted there.
func (h *Host) saveState(ctx context.Context, l loid.LOID) ([]byte, error) {
	res, err := h.obj.Caller().CallAddrCtx(ctx, h.Address(), l, "SaveState")
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return nil, err
	}
	return res.Result(0)
}

// drainObjects drains ls in order and answers the drained objects' OPRs
// in that order. One whose drain fails reopens and is left out; if none
// drained, the last failure is the answer.
func (h *Host) drainObjects(ctx context.Context, ls []loid.LOID) ([]persist.OPR, error) {
	var err error
	set := make([]persist.OPR, 0, len(ls))
	for _, l := range ls {
		o, derr := h.drain(ctx, l)
		if derr != nil {
			err = derr
			continue
		}
		set = append(set, o)
	}
	if len(set) > 0 {
		err = nil
	}
	return set, err
}

// evictObjects ends a planned exit: each object of ls dies here
// (evict). Given the objects' new address (a move's commit), parked
// calls are flushed there in arrival order and late ones forwarded until
// the TTL expires; with none, they bounce back to their callers.
func (h *Host) evictObjects(_ context.Context, ls []loid.LOID, addr oa.Address) (rt.Void, error) {
	to := addr.Primary()
	for _, l := range ls {
		h.evict(l, to)
	}
	if to != (oa.Element{}) {
		node := h.node
		node.Clock().AfterFunc(tombstoneTTL, func() {
			for _, l := range ls {
				node.DropTombstone(l)
			}
		})
	}
	return rt.Void{}, nil
}

// Load is the host's load vector — the placement signal Host Objects
// push to Scheduling Agents and Magistrates on heartbeat cadence
// (§3.7's scheduling hooks, fed with real numbers).
type Load struct {
	// Residents is the number of objects the host runs.
	Residents uint64
	// CPULimit and MemLimit echo the host's configured capacity.
	CPULimit, MemLimit uint64
	// DispatchRate is requests served per second over the last sample
	// window, across all residents.
	DispatchRate uint64
	// MailboxDepth is the current total backlog across resident
	// mailboxes — queued work the dispatch rate has not absorbed.
	MailboxDepth uint64
	// CkptDirty counts residents dirty since their last checkpoint —
	// pressure the next checkpoint round will have to move.
	CkptDirty uint64
}

// Marshal encodes the vector as six u64 fields.
func (ld Load) Marshal() []byte {
	w := wire.NewWriter(make([]byte, 0, 6*8))
	for _, v := range [...]uint64{ld.Residents, ld.CPULimit, ld.MemLimit, ld.DispatchRate, ld.MailboxDepth, ld.CkptDirty} {
		w.U64(v)
	}
	return w.Bytes()
}

// UnmarshalLoad decodes a Load marshalled by Marshal.
func UnmarshalLoad(b []byte) (Load, error) {
	r := wire.NewReader(b)
	ld := Load{Residents: r.U64(), CPULimit: r.U64(), MemLimit: r.U64(), DispatchRate: r.U64(), MailboxDepth: r.U64(), CkptDirty: r.U64()}
	if err := r.Done(); err != nil {
		return Load{}, fmt.Errorf("host: load vector: %w", err)
	}
	return ld, nil
}

// Score collapses the vector into one comparable hotness number.
// Residents dominate (they are what migration can actually move);
// backlog and dispatch rate grade hosts with equal populations, and
// checkpoint pressure breaks remaining ties. Shared by the
// Magistrate's placement policy, sched.LeastLoaded, and the
// rebalancer, so "least loaded" means the same thing everywhere.
func (ld Load) Score() float64 {
	return float64(ld.Residents) +
		float64(ld.MailboxDepth)/4 +
		float64(ld.DispatchRate)/200 +
		float64(ld.CkptDirty)/8
}

// loadMeter differences the node's dispatch counter across samples.
type loadMeter struct {
	mu       sync.Mutex
	lastN    uint64
	lastAt   time.Time
	lastRate uint64
}

// LoadNow samples the host's current load vector.
func (h *Host) LoadNow() Load {
	h.mu.Lock()
	ld := Load{
		Residents: uint64(len(h.running)),
		CPULimit:  h.cpuLimit,
		MemLimit:  h.memLimit,
	}
	residents := maps.Clone(h.running)
	checkpointing := h.ckpt != nil
	h.mu.Unlock()

	for id, r := range residents {
		o, ok := h.node.Lookup(id.LOID())
		if !ok {
			continue
		}
		ld.MailboxDepth += uint64(o.QueueLen())
		if saved, _ := r.savedClock(); checkpointing && saved != o.Mutations() {
			ld.CkptDirty++
		}
	}
	ld.DispatchRate = h.meter.rate(h.node.Served(), h.node.Clock().Now())
	return ld
}

// rate turns the monotone dispatch counter into a requests/sec figure
// at instant now (from the host's clock). Samples closer together than
// 100ms reuse the previous rate so two consumers polling back-to-back
// don't read a meaningless burst.
func (m *loadMeter) rate(served uint64, now time.Time) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lastAt.IsZero() {
		m.lastN, m.lastAt = served, now
		return 0
	}
	dt := now.Sub(m.lastAt)
	if dt < 100*time.Millisecond {
		return m.lastRate
	}
	m.lastRate = uint64(float64(served-m.lastN) / dt.Seconds())
	m.lastN, m.lastAt = served, now
	return m.lastRate
}

// StartLoadReporter begins heartbeating this host's load vector to the
// Magistrate at (mag, magAddr) every interval. Idempotent while a loop
// runs; every <= 0 picks a 250ms default.
func (h *Host) StartLoadReporter(mag loid.LOID, magAddr oa.Address, every time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.loadRep != nil {
		return
	}
	h.loadRep = h.startLoop(every, 250*time.Millisecond, func() {
		// Best effort: a missed heartbeat just leaves the last report
		// standing until the next tick. A configured telemetry sender
		// piggybacks its delta report as the optional third argument —
		// one message carries both.
		_, _ = ReportLoad.Call(context.Background(), h.obj.Caller().At(magAddr, mag),
			h.self, h.LoadNow(), h.telemetry().Report())
	})
}

// StopLoadReporter halts the heartbeat loop (waiting for an in-flight
// report). Safe to call when no loop is running.
func (h *Host) StopLoadReporter() {
	h.mu.Lock()
	r := h.loadRep
	h.loadRep = nil
	h.mu.Unlock()
	r.halt()
}
