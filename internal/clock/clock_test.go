package clock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWallBasics(t *testing.T) {
	c := Of(nil)
	if c != Wall {
		t.Fatalf("Of(nil) != Wall")
	}
	t0 := c.Now()
	c.Sleep(time.Millisecond)
	if c.Since(t0) <= 0 {
		t.Fatalf("wall Since not positive")
	}
	tm := c.NewTimer(time.Millisecond)
	select {
	case <-tm.C():
	case <-time.After(time.Second):
		t.Fatalf("wall timer never fired")
	}
}

func TestVirtualNowAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	if !v.Now().Equal(Epoch) {
		t.Fatalf("zero start should be Epoch, got %v", v.Now())
	}
	v.Advance(5 * time.Second)
	if got := v.Since(Epoch); got != 5*time.Second {
		t.Fatalf("Since = %v, want 5s", got)
	}
	v.AdvanceTo(Epoch) // past: no-op
	if got := v.Since(Epoch); got != 5*time.Second {
		t.Fatalf("AdvanceTo past moved the clock to %v", got)
	}
}

func TestVirtualTimerOrder(t *testing.T) {
	v := NewVirtual(time.Time{})
	var order []int
	var mu sync.Mutex
	note := func(i int) func() {
		return func() { mu.Lock(); order = append(order, i); mu.Unlock() }
	}
	// Same deadline: fires in schedule order. Different deadlines: in
	// time order regardless of schedule order.
	v.AfterFunc(30*time.Millisecond, note(3))
	v.AfterFunc(10*time.Millisecond, note(1))
	v.AfterFunc(10*time.Millisecond, note(2))
	v.AfterFunc(40*time.Millisecond, note(4))
	v.Advance(time.Second)
	want := []int{1, 2, 3, 4}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestVirtualTimerStopReset(t *testing.T) {
	v := NewVirtual(time.Time{})
	tm := v.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatalf("Stop of pending timer reported false")
	}
	v.Advance(time.Second)
	select {
	case <-tm.C():
		t.Fatalf("stopped timer fired")
	default:
	}
	if tm.Reset(10 * time.Millisecond) {
		t.Fatalf("Reset of stopped timer reported true")
	}
	v.Advance(20 * time.Millisecond)
	select {
	case at := <-tm.C():
		want := Epoch.Add(time.Second + 20*time.Millisecond)
		// The timer fires at its own deadline, not the advance target.
		if !at.Equal(Epoch.Add(time.Second + 10*time.Millisecond)) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatalf("reset timer never fired")
	}
}

func TestVirtualSleepBlockUntil(t *testing.T) {
	v := NewVirtual(time.Time{})
	var woke atomic.Bool
	done := make(chan struct{})
	go func() {
		v.Sleep(time.Hour)
		woke.Store(true)
		close(done)
	}()
	v.BlockUntil(1)
	if woke.Load() {
		t.Fatalf("woke before advance")
	}
	v.Advance(time.Hour)
	<-done
	if !woke.Load() {
		t.Fatalf("sleep never woke")
	}
}

func TestVirtualTicker(t *testing.T) {
	v := NewVirtual(time.Time{})
	tk := v.NewTicker(10 * time.Millisecond)
	ticks := 0
	for i := 0; i < 5; i++ {
		v.Advance(10 * time.Millisecond)
		select {
		case <-tk.C():
			ticks++
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
	tk.Stop()
	v.Advance(time.Second)
	select {
	case <-tk.C():
		t.Fatalf("stopped ticker ticked")
	default:
	}
	if ticks != 5 {
		t.Fatalf("got %d ticks, want 5", ticks)
	}
}

func TestVirtualConcurrentWaiters(t *testing.T) {
	v := NewVirtual(time.Time{})
	const workers = 16
	var wg sync.WaitGroup
	var woke atomic.Int64
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.Sleep(time.Duration(i+1) * time.Millisecond)
			woke.Add(1)
		}(i)
	}
	v.BlockUntil(workers)
	v.Advance(time.Second)
	wg.Wait()
	if woke.Load() != workers {
		t.Fatalf("woke %d of %d", woke.Load(), workers)
	}
}
