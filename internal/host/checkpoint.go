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
	"repro/internal/wire"
)

// Checkpoint batches are flushed when either bound is reached, so one
// slow round cannot grow an unbounded RPC: transport frames are capped
// at 32 MiB and a storm of small objects should amortize into few
// group commits, not few giant ones.
const (
	ckptBatchEntries = 64
	ckptBatchBytes   = 256 << 10
)

// checkpointer is the host's periodic snapshot loop: every interval it
// walks the resident objects, saves the state of the ones that changed
// since the last round, and ships each snapshot to the jurisdiction's
// Magistrate (CheckpointBatch), which files it in the Jurisdiction's Store.
// That OPR is what HostFailed recovery activates from — the paper's "a
// Magistrate can always activate the object" (§3.1.1) extended to
// hosts that die without warning.
type checkpointer struct {
	*loop
	mag     loid.LOID
	magAddr oa.Address

	// mu admits one round at a time. What each resident last had
	// checkpointed lives in its resident record, not here, so it goes
	// when the object does.
	mu sync.Mutex
}

// ckptMark is what a round records once the Magistrate accepts a
// snapshot: the resident it came from and the mutation clock read
// before the save.
type ckptMark struct {
	r     *resident
	clock uint64
}

// StartCheckpointer begins periodic checkpointing of this host's
// residents into the Magistrate at (mag, magAddr). Idempotent: a
// second call while a loop is running is a no-op. every <= 0 picks a
// 1s default.
func (h *Host) StartCheckpointer(mag loid.LOID, magAddr oa.Address, every time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ckpt == nil {
		h.ckpt = &checkpointer{mag: mag, magAddr: magAddr,
			loop: h.startLoop(every, time.Second, func() { h.CheckpointNow() })}
	}
}

// StopCheckpointer halts the loop (waiting for an in-flight round).
// Safe to call when no loop is running.
func (h *Host) StopCheckpointer() {
	h.mu.Lock()
	c := h.ckpt
	h.ckpt = nil
	h.mu.Unlock()
	if c != nil {
		c.halt()
	}
}

// CheckpointNow runs one checkpoint round synchronously: every dirty
// resident is saved locally, and the snapshots ship to the Magistrate
// in CheckpointBatch RPCs of up to ckptBatchEntries objects or
// ckptBatchBytes of state — one group commit per flush on a batching
// store instead of one fsync per object. Returns how many objects the
// Magistrate accepted. Idle objects (mutation clock unchanged since
// the last round) cost one atomic load. A failed save or a failed
// flush leaves its objects dirty for the next round; the first error
// is returned for observability.
func (h *Host) CheckpointNow() (int, error) {
	h.mu.Lock()
	c := h.ckpt
	if c == nil {
		h.mu.Unlock()
		return 0, fmt.Errorf("host %v: no checkpointer", h.self)
	}
	targets := maps.Clone(h.running)
	h.mu.Unlock()

	// One round at a time: concurrent CheckpointNow calls (ticker vs.
	// forced) would double-save the same objects.
	c.mu.Lock()
	defer c.mu.Unlock()

	span := h.node.Tracer().Root("call", "checkpoint", "host")
	reg := h.node.Registry()
	var firstErr error
	saved := 0

	var (
		pending      []persist.OPR
		marks        []ckptMark // parallel to pending
		pendingBytes int
	)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		accepted, err := CheckpointBatch.Call(context.Background(), h.obj.Caller().At(c.magAddr, c.mag), h.self, pending)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("host %v: checkpoint batch of %d: %w", h.self, len(pending), err)
			}
			span.Event("checkpoint", fmt.Sprintf("batch of %d failed: %v", len(pending), err))
			reg.Counter("ckpt/errors").Inc()
		} else {
			for _, m := range marks {
				m.r.ckpt.Store(m.clock + 1)
			}
			saved += int(accepted)
			span.Event("checkpoint", fmt.Sprintf("batch of %d, %d bytes, %d accepted",
				len(pending), pendingBytes, accepted))
			reg.Counter("ckpt/batches").Inc()
			reg.Counter("ckpt/saved").Add(uint64(len(pending)))
			reg.Counter("ckpt/bytes").Add(uint64(pendingBytes))
		}
		pending = pending[:0]
		marks = marks[:0]
		pendingBytes = 0
	}

	for id, r := range targets {
		l := id.LOID()
		o, ok := h.node.Lookup(l)
		if !ok {
			continue
		}
		clock := o.Mutations()
		if last, ok := r.savedClock(); ok && last == clock {
			continue // idle since last round
		}
		// The clock is read before the save: a mutation that lands
		// mid-save is re-checkpointed next round.
		state, err := h.saveState(context.Background(), l)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("host %v: checkpoint %v: %w", h.self, l, err)
			}
			span.Event("checkpoint", fmt.Sprintf("%v failed: %v", l, err))
			reg.Counter("ckpt/errors").Inc()
			continue
		}
		pending = append(pending, persist.OPR{LOID: l, Impl: r.impl, State: state})
		marks = append(marks, ckptMark{r, clock})
		pendingBytes += len(state)
		if len(pending) >= ckptBatchEntries || pendingBytes >= ckptBatchBytes {
			flush()
		}
	}
	flush()
	if span != nil {
		span.Finish(wire.OK.String())
	}
	return saved, firstErr
}
