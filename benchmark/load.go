package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/wire"
)

// Load shape, shared by every workload: a closed loop. A Legion caller
// blocks on its reply, so a caller's next call waits for the previous
// one; each caller goroutine has exactly one call outstanding and the
// benchmark process is the only client.

// opHooks is the workload-specific part of one generated call. All four
// workloads issue Caller.Call(target, method, arg); they differ in how
// the op maps to a call and in what a correct reply is.
type opHooks interface {
	// prepare maps the op to a call. It runs outside the timed interval
	// and may inject the op's fault (cold_bind's Deactivate). arg is nil
	// for a no-argument method.
	prepare(cs *callerState, o op) (target loid.LOID, method string, arg []byte, err error)
	// verify checks the reply and returns the payload (argument plus
	// result bytes) the op moved.
	verify(cs *callerState, o op, res *rt.Result) (payload int, err error)
}

// callerState is one caller goroutine's private state: its op stream,
// its communication layer, its measurements. Nothing here is shared, so
// the loop takes no locks of its own.
type callerState struct {
	id     int
	epoch  time.Time
	caller *rt.Caller
	stream *opStream
	hooks  opHooks
	rec    *recorder // nil when tracing is off
	cur    *recorder // rec while the current op is traced, else nil

	// expect is the Work counter this caller last saw per owned object:
	// partitions are disjoint, so the next reply must be exactly +1.
	expect []uint64
	// objs is the caller's own partition of the population.
	objs []loid.LOID

	opSeq     uint64
	attempted uint64
	failed    uint64
	payload   uint64
	callNs    int64 // Σ timed call latency
	loopNs    int64 // Σ wall time spent in measured steps
	firstErr  error
	argv      [1][]byte

	// windows holds verified ops per measured window, over every
	// runLoad so far, and hists their call latencies; the current
	// stretch books into windows[winBase:].
	windows  []uint64
	hists    []*latHist
	winBase  int
	start    int64 // of the current stretch
	windowNs int64
	// warm discards the stretch's measurements (caches filling, lazy
	// dials).
	warm bool
}

func (cs *callerState) now() int64 { return int64(time.Since(cs.epoch)) }

// step issues one op and returns when it ended; a measured op is booked
// into the window its completion falls in. In a traced run only the
// even windows record spans, so the odd ones give the untraced rate the
// tracing overhead is taken against, inside the same run.
func (cs *callerState) step() int64 {
	stepStart := cs.now()
	rec := cs.rec
	if rec != nil && (cs.warm || (cs.winBase+int((stepStart-cs.start)/cs.windowNs))%2 == 1) {
		rec = nil
	}
	cs.cur = rec
	o := cs.stream.next()
	cs.opSeq++
	rec.begin("gen.op", cs.opSeq)
	target, method, arg, err := cs.hooks.prepare(cs, o)
	var res *rt.Result
	var t0, t1 int64
	if err == nil {
		args := cs.argv[:0]
		if arg != nil {
			args = append(args, arg)
		}
		rec.begin("rt.call", cs.opSeq)
		t0 = cs.now()
		res, err = cs.caller.Call(target, method, args...)
		t1 = cs.now()
		rec.end()
	}
	payload := 0
	if err == nil && res.Code != wire.OK {
		err = res.Err()
	}
	if err == nil {
		payload, err = cs.hooks.verify(cs, o, res)
	}
	rec.end()
	end := cs.now()
	if cs.warm {
		if err != nil && cs.firstErr == nil {
			cs.firstErr = fmt.Errorf("warm-up op %d: %w", cs.opSeq, err)
		}
		return end
	}
	cs.attempted++
	if err != nil {
		// A failed or refused op counts against fail_share and
		// contributes no latency sample and no throughput.
		cs.failed++
		if cs.firstErr == nil {
			cs.firstErr = fmt.Errorf("op %d: %w", cs.opSeq, err)
		}
		return end
	}
	if w := cs.winBase + int((end-cs.start)/cs.windowNs); w < len(cs.windows) {
		cs.windows[w]++
		cs.hists[w].observe(t1 - t0)
	}
	cs.callNs += t1 - t0
	cs.loopNs += end - stepStart
	cs.payload += uint64(payload)
	return end
}

// runLoad drives every caller through nWindows measured windows of
// window each (nWindows 0: one discarded warm-up stretch of that
// length), and returns once all callers have finished their last op: on
// return the system is quiescent.
func runLoad(callers []*callerState, window time.Duration, nWindows int) {
	start := callers[0].now()
	stop := start + int64(window)*int64(max(nWindows, 1))
	var wg sync.WaitGroup
	for _, cs := range callers {
		cs.start, cs.windowNs, cs.warm = start, int64(window), nWindows == 0
		cs.winBase = len(cs.windows)
		cs.windows = append(cs.windows, make([]uint64, nWindows)...)
		for i := 0; i < nWindows; i++ {
			cs.hists = append(cs.hists, new(latHist))
		}
		wg.Add(1)
		go func(cs *callerState) {
			defer wg.Done()
			for cs.step() < stop {
			}
		}(cs)
	}
	wg.Wait()
}

// loadTotals is the sum over callers of everything measured so far.
type loadTotals struct {
	attempted, failed uint64
	payload           uint64
	callNs, loopNs    int64
	samples           uint64
	rates             []float64  // verified ops/s per window
	hists             []*latHist // call latencies per window, all callers
	firstErr          error
}

func totalsOf(callers []*callerState, window time.Duration) *loadTotals {
	t := &loadTotals{}
	perCaller := make([][]uint64, 0, len(callers))
	for _, cs := range callers {
		t.attempted += cs.attempted
		t.failed += cs.failed
		t.payload += cs.payload
		t.callNs += cs.callNs
		t.loopNs += cs.loopNs
		for w, h := range cs.hists {
			if w == len(t.hists) {
				t.hists = append(t.hists, new(latHist))
			}
			t.hists[w].merge(h)
			t.samples += h.n
		}
		if t.firstErr == nil {
			t.firstErr = cs.firstErr
		}
		perCaller = append(perCaller, cs.windows)
	}
	t.rates = windowRates(perCaller, window.Seconds())
	return t
}

// workCount decodes a Work reply.
func workCount(res *rt.Result) (uint64, error) {
	raw, err := res.Result(0)
	if err != nil {
		return 0, err
	}
	return wire.AsUint64(raw)
}

// verifyWork is the shared Work check: the reply must be exactly one
// more than the count this caller last saw for the object.
func verifyWork(cs *callerState, o op, res *rt.Result) (int, error) {
	got, err := workCount(res)
	if err != nil {
		return 0, err
	}
	want := cs.expect[o.obj] + 1
	if got != want {
		// Resynchronise so one lost update is counted once, not on
		// every later call to the object.
		cs.expect[o.obj] = got
		return 0, fmt.Errorf("Work on %v returned %d, want %d", cs.objs[o.obj], got, want)
	}
	cs.expect[o.obj] = want
	return 8, nil
}
