package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Epoch is the Virtual clock's default start instant. A fixed epoch
// (rather than time.Now at construction) keeps two runs of the same
// seed byte-identical in anything that prints or logs timestamps.
var Epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a deterministic event-queue clock. Time stands still
// until a test or simulation driver calls Advance or AdvanceTo;
// advancing fires every due timer, ticker, sleeper, and AfterFunc in
// strict (time, schedule-order) sequence on the advancing goroutine.
// Two runs that schedule the same events in the same order therefore
// fire them in the same order.
//
// All methods are safe for concurrent use: worker goroutines may
// Sleep or block on timers while a driver goroutine advances.
// BlockUntil lets the driver wait for workers to park before moving
// time, avoiding the advance-before-sleep race.
type Virtual struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast whenever the pending-event count grows
	now     time.Time
	seq     uint64
	events  eventHeap
	pending int // live (uncancelled) scheduled events
	// deferredFns collects AfterFunc payloads that came due during an
	// advance; they run on the advancing goroutine once the clock
	// unlocks, so a payload may itself use the clock.
	deferredFns []func()
}

// NewVirtual builds a virtual clock starting at start (Epoch when
// zero).
func NewVirtual(start time.Time) *Virtual {
	if start.IsZero() {
		start = Epoch
	}
	v := &Virtual{now: start}
	v.cond = sync.NewCond(&v.mu)
	return v
}

type vevent struct {
	at        time.Time
	seq       uint64
	cancelled bool
	// fire delivers the event. Called with v.mu held; must not block.
	// sendCh-style events use 1-buffered channels so delivery never
	// waits for a receiver.
	fire func(now time.Time)
	// period > 0 reschedules the event period after it fires (tickers).
	period time.Duration
}

type eventHeap []*vevent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*vevent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// schedule registers an event d from now (due immediately when d <= 0;
// it still waits for the next Advance, like a 0-duration
// time.Timer waits for the runtime). Caller must hold v.mu.
func (v *Virtual) scheduleLocked(d time.Duration, period time.Duration, fire func(time.Time)) *vevent {
	if d < 0 {
		d = 0
	}
	v.seq++
	e := &vevent{at: v.now.Add(d), seq: v.seq, fire: fire, period: period}
	heap.Push(&v.events, e)
	v.pending++
	v.cond.Broadcast()
	return e
}

func (v *Virtual) cancelLocked(e *vevent) bool {
	if e.cancelled {
		return false
	}
	e.cancelled = true
	v.pending--
	return true
}

// Now returns the virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Since is Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until is t.Sub(Now()).
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Sleep blocks the calling goroutine until the clock advances past
// now+d. A non-positive d returns immediately.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	v.scheduleLocked(d, 0, func(now time.Time) { ch <- now })
	v.mu.Unlock()
	<-ch
}

// After returns a channel delivering the virtual time once d has
// elapsed.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	v.scheduleLocked(d, 0, func(now time.Time) { ch <- now })
	v.mu.Unlock()
	return ch
}

// AfterFunc schedules f once d has elapsed. f runs on the advancing
// goroutine with the clock unlocked, in deterministic event order.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &vtimer{v: v, ch: make(chan time.Time, 1), f: f}
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, 0, t.deliver)
	v.mu.Unlock()
	return t
}

// NewTimer returns a timer whose channel fires once d has elapsed.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, 0, t.deliver)
	v.mu.Unlock()
	return t
}

// NewTicker returns a ticker firing every d. Ticks that land while the
// channel is full are dropped, matching time.Ticker.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	t := &vticker{v: v, ch: make(chan time.Time, 1)}
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, d, t.deliver)
	v.mu.Unlock()
	return t
}

type vtimer struct {
	v  *Virtual
	ch chan time.Time
	f  func() // AfterFunc payload; nil for channel timers
	ev *vevent
}

func (t *vtimer) deliver(now time.Time) {
	if t.f != nil {
		t.v.deferredFns = append(t.v.deferredFns, t.f)
		return
	}
	select {
	case t.ch <- now:
	default:
	}
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	return t.v.cancelLocked(t.ev)
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	was := t.v.cancelLocked(t.ev)
	t.ev = t.v.scheduleLocked(d, 0, t.deliver)
	return was
}

type vticker struct {
	v  *Virtual
	ch chan time.Time
	ev *vevent
}

func (t *vticker) deliver(now time.Time) {
	select {
	case t.ch <- now:
	default:
	}
}

func (t *vticker) C() <-chan time.Time { return t.ch }

func (t *vticker) Stop() {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.v.cancelLocked(t.ev)
}

// Advance moves the clock forward by d, firing every event due on the
// way in (time, schedule) order.
func (v *Virtual) Advance(d time.Duration) { v.AdvanceTo(v.Now().Add(d)) }

// AdvanceTo moves the clock to t (no-op when t is in the past), firing
// every event due on the way in (time, schedule) order. AfterFunc
// payloads run synchronously on this goroutine, clock unlocked, so by
// return every due side effect has happened.
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	for {
		if !v.fireNextLocked(t) {
			break
		}
	}
	if t.After(v.now) {
		v.now = t
	}
	fns := v.deferredFns
	v.deferredFns = nil
	v.mu.Unlock()
	for _, f := range fns {
		f()
	}
}

// peekLocked returns the earliest live event, discarding cancelled
// ones.
func (v *Virtual) peekLocked() *vevent {
	for v.events.Len() > 0 {
		e := v.events[0]
		if e.cancelled {
			heap.Pop(&v.events)
			continue
		}
		return e
	}
	return nil
}

// fireNextLocked fires the earliest event due at or before limit,
// returning false when none is. Ticker events reschedule themselves.
func (v *Virtual) fireNextLocked(limit time.Time) bool {
	e := v.peekLocked()
	if e == nil || e.at.After(limit) {
		return false
	}
	heap.Pop(&v.events)
	v.pending--
	if e.at.After(v.now) {
		v.now = e.at
	}
	e.fire(v.now)
	if e.period > 0 && !e.cancelled {
		// Reschedule in place: same event object keeps Stop working.
		v.seq++
		e.at = e.at.Add(e.period)
		e.seq = v.seq
		heap.Push(&v.events, e)
		v.pending++
	}
	return true
}

// Pending reports how many live events are scheduled (sleepers,
// timers, tickers).
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.pending
}

// BlockUntil waits until at least n events are scheduled — the
// driver-side half of the advance-before-sleep handshake: a test
// spawns a worker, BlockUntils(1) until the worker has parked in
// Sleep, then Advances past the wake point.
func (v *Virtual) BlockUntil(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.pending < n {
		v.cond.Wait()
	}
}
