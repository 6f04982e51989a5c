package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/clock"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/wire"
)

// TestIdleObjectFootprint bounds what an active object that is doing
// nothing costs: its goroutine stack plus a few hundred bytes of
// runtime record. Capacity reserved for traffic that may never come —
// mailbox slots, a binding cache — would show here.
func TestIdleObjectFootprint(t *testing.T) {
	const budget = 5 << 10 // bytes per idle object
	per := objectFootprint(t, false)
	t.Logf("%d B per idle object", per)
	if per > budget {
		t.Errorf("an idle object costs %d B, budget %d B", per, budget)
	}
}

// TestServedObjectFootprint is TestIdleObjectFootprint after one call to
// each object. Serving grows the dispatch goroutine's stack from 2 to
// 4 KiB, which is most of the difference (5.6 KiB against 3.4 KiB idle).
// Scratch kept per object or per worker between calls would show here,
// and so would a serve path whose frames push the stack to 8 KiB.
func TestServedObjectFootprint(t *testing.T) {
	const budget = 6 << 10 // bytes per served object
	per := objectFootprint(t, true)
	t.Logf("%d B per object served once", per)
	if per > budget {
		t.Errorf("an object served once costs %d B, budget %d B", per, budget)
	}
}

// objectFootprint spawns 1024 default-option objects, calls each once
// when serve is set, and returns what each costs in HeapInuse +
// StackInuse once its dispatch goroutine is waiting again.
func objectFootprint(t *testing.T, serve bool) int64 {
	if raceEnabled {
		t.Skip("the race detector's larger frames and heap records are not the object's cost")
	}
	const objects = 1024
	_, nodes := newTestFabricNodes(t, 2)
	c := clientOn(nodes[1], clientLOID)
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse + ms.StackInuse
	}
	before := inuse()
	for i := 0; i < objects; i++ {
		l := loid.NewNoKey(400, uint64(i+1))
		if _, err := nodes[0].Spawn(l, &echoImpl{}); err != nil {
			t.Fatal(err)
		}
		if !serve {
			continue
		}
		res, err := c.CallAddr(nodes[0].Address(), l, "Echo", []byte("once"))
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call %d: %v %v", i, res, err)
		}
	}
	// Let every dispatch goroutine reach its wait before measuring.
	time.Sleep(50 * time.Millisecond)
	return int64(inuse()-before) / objects
}

// gatedImpl serves "Seq": it checks that each sender's sequence numbers
// arrive in order, records every (sender, seq) it sees, and — when hold
// is set — waits for one token per call before returning.
type gatedImpl struct {
	hold    chan struct{} // nil = never wait
	entered atomic.Int64  // calls that reached the handler

	mu   sync.Mutex
	last map[uint64]uint64 // sender -> last seq
	seen map[[2]uint64]int // (sender, seq) -> times served
	fifo bool              // enforce per-sender order
}

func newGatedImpl(fifo, hold bool) *gatedImpl {
	g := &gatedImpl{last: map[uint64]uint64{}, seen: map[[2]uint64]int{}, fifo: fifo}
	if hold {
		g.hold = make(chan struct{})
	}
	return g
}

func (g *gatedImpl) Interface() *idl.Interface   { return nil }
func (g *gatedImpl) SaveState() ([]byte, error)  { return nil, nil }
func (g *gatedImpl) RestoreState(s []byte) error { return nil }

func (g *gatedImpl) Dispatch(inv *Invocation) ([][]byte, error) {
	g.entered.Add(1)
	if g.hold != nil {
		<-g.hold
	}
	sender, _ := wire.AsUint64(inv.Args[0])
	seq, _ := wire.AsUint64(inv.Args[1])
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seen[[2]uint64{sender, seq}]++
	if g.fifo {
		if last := g.last[sender]; seq != last+1 {
			return nil, fmt.Errorf("sender %d: seq %d after %d", sender, seq, last)
		}
		g.last[sender] = seq
	}
	return nil, nil
}

// storm has senders goroutines each pipeline perSender Seq calls at
// target through their own Caller and wait for every reply.
func storm(t *testing.T, cli, srv *Node, target loid.LOID, senders, perSender int) {
	t.Helper()
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func(s uint64) {
			defer wg.Done()
			c := clientOn(cli, loid.NewNoKey(300, 100+s))
			c.AddBinding(binding.Forever(target, srv.Address()))
			futures := make([]*Future, 0, perSender)
			for seq := uint64(1); seq <= uint64(perSender); seq++ {
				fu, err := c.Invoke(target, "Seq", wire.Uint64(s), wire.Uint64(seq))
				if err != nil {
					t.Errorf("sender %d seq %d: %v", s, seq, err)
					return
				}
				futures = append(futures, fu)
			}
			for i, fu := range futures {
				res, err := fu.Wait(10 * time.Second)
				if err != nil || res.Code != wire.OK {
					t.Errorf("sender %d seq %d: %v %v", s, i+1, res, err)
					return
				}
			}
		}(uint64(s))
	}
	wg.Wait()
}

// TestMailboxPerSenderFIFO: one worker serves eight concurrent senders'
// pipelined calls; each sender's calls are dispatched in the order it
// sent them.
func TestMailboxPerSenderFIFO(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	impl := newGatedImpl(true, false)
	if _, err := nodes[0].Spawn(echoLOID, impl); err != nil {
		t.Fatal(err)
	}
	storm(t, nodes[1], nodes[0], echoLOID, 8, 300)
}

// TestMailboxConcurrencyExactlyOnce: four workers share the mailbox and
// every accepted frame is dispatched exactly once.
func TestMailboxConcurrencyExactlyOnce(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	impl := newGatedImpl(false, false)
	if _, err := nodes[0].Spawn(echoLOID, impl, WithConcurrency(4)); err != nil {
		t.Fatal(err)
	}
	const senders, perSender = 8, 300
	storm(t, nodes[1], nodes[0], echoLOID, senders, perSender)
	impl.mu.Lock()
	defer impl.mu.Unlock()
	if len(impl.seen) != senders*perSender {
		t.Errorf("%d distinct calls served, want %d", len(impl.seen), senders*perSender)
	}
	for k, n := range impl.seen {
		if n != 1 {
			t.Errorf("sender %d seq %d served %d times", k[0], k[1], n)
		}
	}
}

// TestMailboxDepthBoundAndStop walks the mailbox through its bound and
// its end: QueueLen follows the backlog, the deliverer that finds
// mailboxDepth frames waiting blocks until one is served, stop releases
// the backlog's buffers, and a deliverer caught waiting at stop — like
// any delivery after it — is answered ErrNoSuchObject.
func TestMailboxDepthBoundAndStop(t *testing.T) {
	live0 := buf.Live()
	_, nodes := newTestFabricNodes(t, 2)
	srv, cli := nodes[0], nodes[1]
	impl := newGatedImpl(false, true)
	o, err := srv.Spawn(echoLOID, impl)
	if err != nil {
		t.Fatal(err)
	}
	c := clientOn(cli, loid.NewNoKey(300, 1))
	c.AddBinding(binding.Forever(echoLOID, srv.Address()))
	invoke := func(seq uint64) *Future {
		t.Helper()
		fu, err := c.Invoke(echoLOID, "Seq", wire.Uint64(1), wire.Uint64(seq))
		if err != nil {
			t.Fatal(err)
		}
		return fu
	}

	// The worker takes the first frame and waits in the handler; the
	// next mailboxDepth fill the queue to its bound.
	first := invoke(0)
	for impl.entered.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for seq := uint64(1); seq <= mailboxDepth; seq++ {
		invoke(seq)
		if got := o.QueueLen(); got != int(seq) {
			t.Fatalf("QueueLen = %d with %d frames waiting", got, seq)
		}
	}

	// One more deliverer must wait for room.
	delivered := make(chan *Future, 2)
	deliver := func(seq uint64) { // for goroutines other than the test's
		fu, err := c.Invoke(echoLOID, "Seq", wire.Uint64(1), wire.Uint64(seq))
		if err != nil {
			t.Error(err)
		}
		delivered <- fu
	}
	go deliver(mailboxDepth + 1)
	select {
	case <-delivered:
		t.Fatal("delivery into a full mailbox did not block")
	case <-time.After(50 * time.Millisecond):
	}
	impl.hold <- struct{}{} // serve the first call; the worker takes the next
	if _, err := first.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("deliverer still blocked after a frame was served")
	}
	if got := o.QueueLen(); got != mailboxDepth {
		t.Fatalf("QueueLen = %d after the refill, want %d", got, mailboxDepth)
	}

	// A deliverer is waiting on the full mailbox when the object stops.
	go deliver(mailboxDepth + 2)
	time.Sleep(20 * time.Millisecond)
	srv.Kill(echoLOID)
	var late *Future
	select {
	case late = <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not release the waiting deliverer")
	}
	if res, err := late.Wait(5 * time.Second); err != nil || res.Code != wire.ErrNoSuchObject {
		t.Errorf("delivery caught by stop: %v %v, want ErrNoSuchObject", res, err)
	}
	if res, err := invoke(0).Wait(5 * time.Second); err != nil || res.Code != wire.ErrNoSuchObject {
		t.Errorf("delivery after stop: %v %v, want ErrNoSuchObject", res, err)
	}
	if got := o.QueueLen(); got != 0 {
		t.Errorf("QueueLen = %d after stop", got)
	}
	close(impl.hold) // let the one call the worker still holds finish

	cli.Close()
	srv.Close()
	if !buf.Tracking {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for buf.Live() > live0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := buf.Live(); n > live0 {
		t.Errorf("%d buffers still live after stop with a backlog:\n%s", n-live0, joinStacks(buf.LiveStacks()))
	}
}

// TestCallerCacheLazy: a Caller builds its binding cache on first use,
// exactly once, on its node's time base.
func TestCallerCacheLazy(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 1)
	self := loid.NewNoKey(300, 1)

	c := NewCaller(nodes[0], self, nil)
	if c.cache.Load() != nil {
		t.Fatal("a fresh Caller already holds a cache")
	}
	if _, err := c.Call(echoLOID, "Ping"); err == nil {
		t.Error("call with no binding and no resolver succeeded")
	}
	if c.cache.Load() != nil {
		t.Error("a miss with no resolver built a cache")
	}

	const adders = 8
	caches := make([]*binding.Cache, adders)
	var wg sync.WaitGroup
	for i := 0; i < adders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.AddBinding(binding.Forever(loid.NewNoKey(256, uint64(i+1)), nodes[0].Address()))
			caches[i] = c.Cache()
		}(i)
	}
	wg.Wait()
	for i := 0; i < adders; i++ {
		if caches[i] != caches[0] {
			t.Fatalf("adder %d saw a different cache", i)
		}
		if _, ok := caches[0].Get(loid.NewNoKey(256, uint64(i+1))); !ok {
			t.Errorf("binding %d lost in the first-use race", i)
		}
	}

	// On a virtual node the cache judges expiry on virtual time: the
	// epoch is long past on the wall clock, yet the binding is valid
	// until the virtual clock passes it.
	epoch := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	vclk := clock.NewVirtual(epoch)
	_, vnodes := newTestFabricNodes(t, 1)
	vnodes[0].SetClock(vclk)
	vc := NewCaller(vnodes[0], self, nil)
	vc.AddBinding(binding.Until(echoLOID, vnodes[0].Address(), epoch.Add(time.Minute)))
	if _, ok := vc.Cache().Get(echoLOID); !ok {
		t.Error("binding valid on virtual time judged expired")
	}
	vclk.Advance(2 * time.Minute)
	if _, ok := vc.Cache().Get(echoLOID); ok {
		t.Error("binding still valid after the virtual clock passed its expiry")
	}
}
