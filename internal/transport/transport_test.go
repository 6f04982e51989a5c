package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/oa"
)

// send copies data into a pooled frame and sends it from ep.
func send(ep Endpoint, to oa.Element, data []byte) error {
	fb := buf.Get()
	fb.B = append(fb.B, data...)
	err := ep.SendBuf(to, fb)
	fb.Release()
	return err
}

// collector accumulates received messages behind a lock and signals
// arrivals on a channel.
type collector struct {
	mu   sync.Mutex
	msgs [][]byte
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) handler(_ *buf.Buffer, data []byte, _ bool) {
	// The frame is only lent for the call; copy.
	c.mu.Lock()
	c.msgs = append(c.msgs, append([]byte(nil), data...))
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int) [][]byte {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("timed out waiting for message %d/%d", i+1, n)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.msgs))
	copy(out, c.msgs)
	return out
}

// TestFabricCopiesBuffer: a delayed delivery keeps the frame's bytes
// on its own reference, so the receiver sees them as sent even after
// the sender released its buffer and the pool handed storage out again.
func TestFabricCopiesBuffer(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	f.SetLatency(10 * time.Millisecond)
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetFrameHandler(col.handler)
	fb := buf.Get()
	fb.B = append(fb.B, "original"...)
	if err := a.SendBuf(b.Element(), fb); err != nil {
		t.Fatal(err)
	}
	fb.Release()
	reused := buf.Get()
	reused.B = append(reused.B, "MUTATED!"...)
	defer reused.Release()
	msgs := col.wait(t, 1)
	if string(msgs[0]) != "original" {
		t.Errorf("sender mutation visible to receiver: %q", msgs[0])
	}
}

func TestFabricUnreachable(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	if err := send(a, oa.MemElement(9999), []byte("x")); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if err := send(a, oa.Element{Type: oa.TypeIP}, []byte("x")); err != ErrUnreachable {
		t.Errorf("wrong element type: err = %v", err)
	}
}

func TestFabricClosedEndpointUnreachable(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	b.Close()
	if err := send(a, b.Element(), []byte("x")); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if f.Endpoints() != 1 {
		t.Errorf("Endpoints = %d, want 1", f.Endpoints())
	}
}

func TestFabricPartition(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetFrameHandler(col.handler)
	aID, _ := oa.MemID(a.Element())
	bID, _ := oa.MemID(b.Element())
	f.Block(aID, bID)
	if err := send(a, b.Element(), []byte("x")); err != ErrUnreachable {
		t.Fatalf("partitioned send err = %v", err)
	}
	f.Unblock(aID, bID)
	if err := send(a, b.Element(), []byte("y")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
}

func TestFabricLoss(t *testing.T) {
	reg := metrics.NewRegistry()
	f := NewFabric(reg)
	defer f.Close()
	f.SetLoss(1.0, 42) // drop everything
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetFrameHandler(col.handler)
	for i := 0; i < 10; i++ {
		if err := send(a, b.Element(), []byte("x")); err != nil {
			t.Fatal(err) // loss is silent, not an error
		}
	}
	if got := reg.Counter("net/dropped").Value(); got != 10 {
		t.Errorf("dropped = %d, want 10", got)
	}
	select {
	case <-col.ch:
		t.Error("message delivered despite 100% loss")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestFabricLatency(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	f.SetLatency(30 * time.Millisecond)
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetFrameHandler(col.handler)
	start := time.Now()
	send(a, b.Element(), []byte("x"))
	col.wait(t, 1)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("delivered in %v, want >= ~30ms", d)
	}
}

func TestFabricManyMessagesConcurrent(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	dst, _ := f.NewEndpoint()
	col := newCollector()
	dst.SetFrameHandler(col.handler)
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, _ := f.NewEndpoint()
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				send(ep, dst.Element(), []byte{byte(i)})
			}
		}(ep)
	}
	wg.Wait()
	msgs := col.wait(t, senders*per)
	if len(msgs) != senders*per {
		t.Errorf("received %d, want %d", len(msgs), senders*per)
	}
}

func TestFabricCloseRejectsNewEndpoints(t *testing.T) {
	f := NewFabric(nil)
	f.Close()
	if _, err := f.NewEndpoint(); err != ErrClosed {
		t.Errorf("NewEndpoint after close: %v", err)
	}
}

// wantDials fails t unless the endpoints counting into reg dialed: the
// TCP tests below put each endpoint on its own TCP value, so their
// frames cross real sockets.
func wantDials(t *testing.T, reg *metrics.Registry) {
	t.Helper()
	if reg.Counter("net/tcp_dials").Value() == 0 {
		t.Error("net/tcp_dials = 0; no frame crossed a socket")
	}
}

func TestTCPBidirectionalAndReuse(t *testing.T) {
	reg := metrics.NewRegistry()
	eps := tcpHarness.endpoints(t, reg, 2)
	a, b := eps[0], eps[1]
	colA, colB := newCollector(), newCollector()
	a.SetFrameHandler(colA.handler)
	b.SetFrameHandler(colB.handler)
	for i := 0; i < 20; i++ {
		if err := send(a, b.Element(), []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if err := send(b, a.Element(), []byte("pong")); err != nil {
			t.Fatal(err)
		}
	}
	colB.wait(t, 20)
	colA.wait(t, 20)
	// One connection each way, reused for all twenty frames.
	if n := reg.Counter("net/tcp_dials").Value(); n != 2 {
		t.Errorf("net/tcp_dials = %d, want 2", n)
	}
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	reg := metrics.NewRegistry()
	eps := tcpHarness.endpoints(t, reg, 2)
	a, b := eps[0], eps[1]
	col := newCollector()
	b.SetFrameHandler(col.handler)
	if err := send(a, b.Element(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	wantDials(t, reg)
	b.Close()
	time.Sleep(20 * time.Millisecond)
	// First send may fail (cached conn broken + listener gone): either
	// an error now or success into a void is acceptable, but it must
	// not hang or panic.
	send(a, b.Element(), []byte("2"))
	send(a, b.Element(), []byte("3"))
}

func TestTCPRejectsOversizeFrame(t *testing.T) {
	reg := metrics.NewRegistry()
	eps := tcpHarness.endpoints(t, reg, 2)
	a, b := eps[0], eps[1]
	if err := send(a, b.Element(), []byte("fits")); err != nil {
		t.Fatal(err)
	}
	wantDials(t, reg)
	huge := make([]byte, maxFrame+1)
	if err := send(a, b.Element(), huge); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestFabricSendAfterFabricClose(t *testing.T) {
	f := NewFabric(nil)
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	f.Close()
	if err := send(a, b.Element(), []byte("x")); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestEndpointCloseIdempotent(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	tr := &TCP{}
	e, _ := tr.NewEndpoint()
	e.Close()
	e.Close()
}
