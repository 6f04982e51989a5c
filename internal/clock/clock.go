// Package clock is the runtime's time seam. Every component that
// reads the wall clock, sleeps, or arms a timer — reply deadlines in
// rt, breaker probe windows in health, heartbeat and checkpoint loops
// in host, migration phases in magistrate — does it through a
// Clock, so a deployment can run against the real clock (Wall) or
// against a deterministic event-queue clock (Virtual) that advances
// only when told to. The Virtual clock is what makes the virtual-clock
// tests possible (sim's TestVirtualClockDeployment, health's breaker
// windows, the host loop tests): simulated hours of
// heartbeats, probe windows, binding TTLs and backoffs execute in
// milliseconds of wall time, in a reproducible order.
//
// The seam is free on the fast path: components store a nil Clock to
// mean "wall", so the common case is one nil check before the direct
// time.Now call the code always made.
package clock

import "time"

// Timer is the clock-neutral view of time.Timer. Its channel fires
// once at the scheduled instant (Wall: a real runtime timer; Virtual:
// when an Advance crosses the deadline).
type Timer interface {
	// C returns the channel the expiry is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	// Like time.Timer, Stop does not drain the channel.
	Stop() bool
	// Reset re-arms the timer for d from now, reporting whether it was
	// still pending.
	Reset(d time.Duration) bool
}

// Ticker is the clock-neutral view of time.Ticker.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Clock is the time source interface. Wall implements it over the
// time package; Virtual implements it over a deterministic event
// queue.
type Clock interface {
	Now() time.Time
	Since(t time.Time) time.Duration
	Until(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d. On a Virtual clock the
	// goroutine blocks until another goroutine advances time past the
	// wake point.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run once d has elapsed. On a Virtual
	// clock f runs on the advancing goroutine, in deterministic event
	// order.
	AfterFunc(d time.Duration, f func()) Timer
	NewTimer(d time.Duration) Timer
	NewTicker(d time.Duration) Ticker
}

// Wall is the real clock: the time package behind the Clock interface.
var Wall Clock = wallClock{}

// Of normalizes an optional clock field: nil means Wall. Cold paths
// call it once and use the result; hot paths keep the nil check
// inline instead.
func Of(c Clock) Clock {
	if c == nil {
		return Wall
	}
	return c
}

type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (wallClock) Until(t time.Time) time.Duration        { return time.Until(t) }
func (wallClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer {
	return wallTimer{t: time.AfterFunc(d, f)}
}

func (wallClock) NewTimer(d time.Duration) Timer {
	return wallTimer{t: time.NewTimer(d)}
}

func (wallClock) NewTicker(d time.Duration) Ticker {
	return wallTicker{t: time.NewTicker(d)}
}

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }
