// Live migration, host side. The Host Object owns the mechanical half
// of moving a resident: PrepareMigrate drains the object to a quiesce
// point with new arrivals parked, AbortMigrate replays the parked
// calls locally, and FinishMigrate kills the local incarnation and
// flips the park queue into a one-hop forwarding tombstone aimed at
// the object's new home. The Magistrate drives the phases and owns the
// only authoritative copy of "where the object is" — the host never
// decides a migration's outcome on its own.
//
// The same file carries the host's load vector: the heartbeat report
// Scheduling Agents and the Magistrate's placement policy consume.
package host

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/wire"
)

// tombstoneTTL bounds how long a source host forwards for a migrated
// object. After the TTL, stale callers get the ordinary
// ErrNoSuchObject verdict and refresh through the Magistrate; by then
// every active caller has been re-pointed by the reply-address hint.
const tombstoneTTL = 30 * time.Second

// prepareMigrate parks l's arrivals and drains its mailbox to a
// quiesce point, returning (state, implName) with the object still
// alive (but gated) locally. The SaveState that defines the quiesce
// point is sent through the object's own mailbox AFTER the gate is up,
// so it serializes behind every already-accepted call, and it lands
// despite the gate because the host's identity is the gate's exempt
// caller.
func (h *Host) prepareMigrate(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	r, ok := h.running[l.ID()]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("host %v does not run %v", h.self, l)
	}
	if err := h.node.Park(l, h.self); err != nil {
		return nil, err
	}
	clk := h.node.Clock()
	t0 := clk.Now()
	res, err := h.obj.Caller().CallAddr(h.Address(), l, "SaveState")
	if err == nil {
		err = res.Err()
	}
	var state []byte
	if err == nil {
		state, err = res.Result(0)
	}
	if err != nil {
		// The drain failed; reopen the object before reporting.
		h.node.Unpark(l)
		return nil, fmt.Errorf("host %v: drain %v: %w", h.self, l, err)
	}
	h.node.Registry().Histogram("mig/drain").Observe(clk.Since(t0))
	return [][]byte{state, wire.String(r.impl)}, nil
}

// abortMigrate reopens a prepared object: parked calls replay into its
// mailbox in arrival order and the object resumes service here.
func (h *Host) abortMigrate(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	h.node.Unpark(l)
	return nil, nil
}

// finishMigrate commits a migration: the local incarnation dies, the
// parked calls are flushed — in arrival order — to the object's new
// address, and a one-hop tombstone forwards late arrivals until its
// TTL expires. The new address comes from the Magistrate, which has
// already republished the binding.
func (h *Host) finishMigrate(inv *rt.Invocation) ([][]byte, error) {
	l, err := argLOID(inv, 0)
	if err != nil {
		return nil, err
	}
	rawAddr, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	addr, err := wire.AsAddress(rawAddr)
	if err != nil {
		return nil, err
	}
	if len(addr.Elements) == 0 {
		return nil, fmt.Errorf("host %v: finish %v: empty destination address", h.self, l)
	}
	h.node.Kill(l)
	h.mu.Lock()
	delete(h.running, l.ID())
	h.mu.Unlock()
	lid := l.ID()
	h.node.ForwardParked(lid, addr.Elements[0])
	node := h.node
	node.Clock().AfterFunc(tombstoneTTL, func() { node.DropTombstone(lid) })
	return nil, nil
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
	out := make([]byte, 0, 6*8)
	for _, v := range [...]uint64{ld.Residents, ld.CPULimit, ld.MemLimit, ld.DispatchRate, ld.MailboxDepth, ld.CkptDirty} {
		out = append(out, wire.Uint64(v)...)
	}
	return out
}

// UnmarshalLoad decodes a Load marshalled by Marshal.
func UnmarshalLoad(b []byte) (Load, error) {
	if len(b) != 6*8 {
		return Load{}, fmt.Errorf("host: bad load vector length %d", len(b))
	}
	var v [6]uint64
	for i := range v {
		v[i], _ = wire.AsUint64(b[i*8 : i*8+8])
	}
	return Load{Residents: v[0], CPULimit: v[1], MemLimit: v[2], DispatchRate: v[3], MailboxDepth: v[4], CkptDirty: v[5]}, nil
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
	residents := make(map[loid.LOID]*resident, len(h.running))
	for l, r := range h.running {
		residents[l] = r
	}
	checkpointing := h.ckpt != nil
	h.mu.Unlock()

	for l, r := range residents {
		o, ok := h.node.Lookup(l)
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

// loadReporter is the heartbeat loop pushing LoadNow to the
// jurisdiction's Magistrate.
type loadReporter struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartLoadReporter begins heartbeating this host's load vector to the
// Magistrate at (mag, magAddr) every interval. Idempotent while a loop
// runs; every <= 0 picks a 250ms default.
func (h *Host) StartLoadReporter(mag loid.LOID, magAddr oa.Address, every time.Duration) {
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	h.mu.Lock()
	if h.loadRep != nil {
		h.mu.Unlock()
		return
	}
	r := &loadReporter{stop: make(chan struct{})}
	h.loadRep = r
	h.mu.Unlock()

	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := h.node.Clock().NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C():
				ld := h.LoadNow()
				// Best effort: a missed heartbeat just leaves the last
				// report standing until the next tick. A configured
				// telemetry sender piggybacks its delta report as an
				// optional third argument — one message carries both.
				if tb := h.telemetry().Report(); tb != nil {
					_, _ = h.obj.Caller().CallAddr(magAddr, mag, "ReportLoad",
						wire.LOID(h.self), ld.Marshal(), tb)
				} else {
					_, _ = h.obj.Caller().CallAddr(magAddr, mag, "ReportLoad",
						wire.LOID(h.self), ld.Marshal())
				}
			}
		}
	}()
}

// StopLoadReporter halts the heartbeat loop (waiting for an in-flight
// report). Safe to call when no loop is running.
func (h *Host) StopLoadReporter() {
	h.mu.Lock()
	r := h.loadRep
	h.loadRep = nil
	h.mu.Unlock()
	if r == nil {
		return
	}
	close(r.stop)
	r.wg.Wait()
}
