package rt

import (
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// mailboxDepth bounds each object's queue of unprocessed messages.
const mailboxDepth = 1024

// mailbox is an object's queue of accepted, not yet dispatched request
// frames, and the count of dispatch goroutines draining it. Its memory
// follows the backlog, not the bound: the frames are linked through
// themselves (wire.FrameQueue), so an idle object's mailbox is this
// struct and nothing else. No goroutine waits on an empty mailbox: the
// put that finds fewer than limit drainers running takes a drainer's
// place for its caller to fill (dispatch.go, or Object.serveOne), and a
// drainer leaves once next finds nothing to serve. Deliverers block while mailboxDepth
// frames wait (back-pressure), and close wakes them for good.
type mailbox struct {
	mu      sync.Mutex
	running int32       // drainers serving this mailbox, at most limit; under mu
	limit   int32       // the object's concurrency (WithConcurrency); set before init
	closed  atomic.Bool // written under mu; read lock-free by isClosed
	q       wire.FrameQueue
	notFull sync.Cond // deliverers wait here
}

// init readies the mailbox for at least one drainer.
func (m *mailbox) init() {
	m.notFull.L = &m.mu
	m.limit = max(m.limit, 1)
}

// put's verdicts.
const (
	putOK      = iota
	putDrain   // enqueued, and a drainer's place was taken: the caller must start one
	putRefused // closed, or full and the deliverer would not wait; f stays the caller's
	putRegate  // a migration gate went up since epoch was read; f stays the caller's
)

// put enqueues f. A full mailbox makes a waiting deliverer wait for
// room (back-pressure) and refuses a non-waiting one. When fewer than
// limit drainers are running, put counts one more and answers putDrain.
// A drainer only leaves after finding the queue empty under the same
// lock, so every enqueued frame has a drainer that will see it.
//
// epoch is the node's gate epoch (gateEpoch) as the deliverer read it
// BEFORE it looked for a migration gate. Comparing it again under the mailbox
// lock makes "no gate, so enqueue" one atomic step: if no Park began
// since, the frame is in the queue before that Park returns, so the
// drain call that follows it (sent after Park, enqueued under this same
// lock) serializes behind the frame. Otherwise the deliverer must look
// at the gate table again.
func (m *mailbox) put(f *wire.Frame, wait bool, epoch uint64, gateEpoch *atomic.Uint64) int {
	m.mu.Lock()
	for wait && m.q.Len() >= mailboxDepth && !m.closed.Load() {
		m.notFull.Wait()
	}
	switch {
	case gateEpoch.Load() != epoch: // first: a gated object may be stopped by now
		m.mu.Unlock()
		return putRegate
	case m.closed.Load() || m.q.Len() >= mailboxDepth:
		m.mu.Unlock()
		return putRefused
	}
	m.q.Push(f)
	verdict := putOK
	if m.running < m.limit {
		m.running++
		verdict = putDrain
	}
	m.mu.Unlock()
	return verdict
}

// next dequeues the oldest frame for a drainer. It returns nil, and
// counts the drainer out, once the queue is empty or the mailbox closed.
func (m *mailbox) next() *wire.Frame {
	m.mu.Lock()
	if m.q.Len() == 0 || m.closed.Load() {
		m.running--
		m.mu.Unlock()
		return nil
	}
	f := m.q.Pop()
	m.mu.Unlock()
	// Every next frees a slot; with no deliverer waiting this is one
	// atomic compare.
	m.notFull.Signal()
	return f
}

// leave counts a drainer out when no frame waits (or the mailbox
// closed) and reports whether it did; false leaves the drainer's place
// taken for the caller to fill.
func (m *mailbox) leave() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.q.Len() == 0 || m.closed.Load() {
		m.running--
		return true
	}
	return false
}

func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.q.Len()
}

func (m *mailbox) isClosed() bool { return m.closed.Load() }

// close shuts the mailbox, wakes every waiting deliverer, and hands the
// backlog to the caller, which owns those frames from then on. Drainers
// leave at their next call to next. Call once.
func (m *mailbox) close() wire.FrameQueue {
	m.mu.Lock()
	m.closed.Store(true)
	backlog := m.q
	m.q = wire.FrameQueue{}
	m.mu.Unlock()
	m.notFull.Broadcast()
	return backlog
}
