package rt

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// mailboxDepth bounds each object's queue of unprocessed messages.
const mailboxDepth = 1024

// mailbox is an object's queue of accepted, not yet dispatched request
// frames. Its memory follows the backlog, not the bound: the frames are
// linked through themselves (wire.FrameQueue), so an idle object's
// mailbox is this struct and nothing else. Deliverers block while
// mailboxDepth frames wait (back-pressure), workers block while none
// do, and close wakes both for good.
type mailbox struct {
	mu       sync.Mutex
	q        wire.FrameQueue
	closed   atomic.Bool // written under mu; read lock-free by isClosed
	notEmpty sync.Cond   // workers wait here
	notFull  sync.Cond   // deliverers wait here

	gateEpoch *atomic.Uint64 // the node's; see put
}

// init ties the mailbox to its node's gate epoch (see put).
func (m *mailbox) init(gateEpoch *atomic.Uint64) {
	m.notEmpty.L = &m.mu
	m.notFull.L = &m.mu
	m.gateEpoch = gateEpoch
}

// put's verdicts.
const (
	putOK      = iota
	putRefused // closed, or full and the deliverer would not wait; f stays the caller's
	putRegate  // a migration gate went up since epoch was read; f stays the caller's
)

// put enqueues f. A full mailbox makes a waiting deliverer wait for
// room (back-pressure) and refuses a non-waiting one.
//
// epoch is the node's gate epoch as the deliverer read it BEFORE it
// looked for a migration gate. Comparing it again under the mailbox
// lock makes "no gate, so enqueue" one atomic step: if no Park began
// since, the frame is in the queue before that Park returns, so the
// drain call that follows it (sent after Park, enqueued under this same
// lock) serializes behind the frame. Otherwise the deliverer must look
// at the gate table again.
func (m *mailbox) put(f *wire.Frame, wait bool, epoch uint64) int {
	m.mu.Lock()
	for wait && m.q.Len() >= mailboxDepth && !m.closed.Load() {
		m.notFull.Wait()
	}
	switch {
	case m.gateEpoch.Load() != epoch: // first: a gated object may be stopped by now
		m.mu.Unlock()
		return putRegate
	case m.closed.Load() || m.q.Len() >= mailboxDepth:
		m.mu.Unlock()
		return putRefused
	}
	m.q.Push(f)
	m.mu.Unlock()
	m.notEmpty.Signal()
	return putOK
}

// get dequeues the oldest frame, waiting while there is none. It
// returns nil once the mailbox is closed.
func (m *mailbox) get() *wire.Frame {
	m.mu.Lock()
	for m.q.Len() == 0 && !m.closed.Load() {
		m.notEmpty.Wait()
	}
	if m.closed.Load() {
		m.mu.Unlock()
		return nil
	}
	f := m.q.Pop()
	m.mu.Unlock()
	// Every get frees a slot; with no deliverer waiting this is one
	// atomic compare.
	m.notFull.Signal()
	return f
}

func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.Len()
}

func (m *mailbox) isClosed() bool { return m.closed.Load() }

// close shuts the mailbox, wakes every waiter, and hands the backlog to
// the caller, which owns those frames from then on. Call once.
func (m *mailbox) close() wire.FrameQueue {
	m.mu.Lock()
	m.closed.Store(true)
	backlog := m.q
	m.q = wire.FrameQueue{}
	m.mu.Unlock()
	m.notEmpty.Broadcast()
	m.notFull.Broadcast()
	return backlog
}
