package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/oa"
)

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

func (c *collector) handler(data []byte) {
	// The Handler contract only lends the buffer for the call; copy.
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

func TestFabricCopiesBuffer(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	buf := []byte("original")
	a.Send(b.Element(), buf)
	copy(buf, "MUTATED!")
	msgs := col.wait(t, 1)
	if string(msgs[0]) != "original" {
		t.Errorf("sender mutation visible to receiver: %q", msgs[0])
	}
}

func TestFabricUnreachable(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	if err := a.Send(oa.MemElement(9999), []byte("x")); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
	if err := a.Send(oa.Element{Type: oa.TypeIP}, []byte("x")); err != ErrUnreachable {
		t.Errorf("wrong element type: err = %v", err)
	}
}

func TestFabricClosedEndpointUnreachable(t *testing.T) {
	f := NewFabric(nil)
	defer f.Close()
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	b.Close()
	if err := a.Send(b.Element(), []byte("x")); err != ErrUnreachable {
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
	b.SetHandler(col.handler)
	aID, _ := oa.MemID(a.Element())
	bID, _ := oa.MemID(b.Element())
	f.Block(aID, bID)
	if err := a.Send(b.Element(), []byte("x")); err != ErrUnreachable {
		t.Fatalf("partitioned send err = %v", err)
	}
	f.Unblock(aID, bID)
	if err := a.Send(b.Element(), []byte("y")); err != nil {
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
	b.SetHandler(col.handler)
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Element(), []byte("x")); err != nil {
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
	b.SetHandler(col.handler)
	start := time.Now()
	a.Send(b.Element(), []byte("x"))
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
	dst.SetHandler(col.handler)
	const senders, per = 8, 100
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, _ := f.NewEndpoint()
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ep.Send(dst.Element(), []byte{byte(i)})
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

func TestTCPBidirectionalAndReuse(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	defer b.Close()
	colA, colB := newCollector(), newCollector()
	a.SetHandler(colA.handler)
	b.SetHandler(colB.handler)
	for i := 0; i < 20; i++ {
		if err := a.Send(b.Element(), []byte("ping")); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(a.Element(), []byte("pong")); err != nil {
			t.Fatal(err)
		}
	}
	colB.wait(t, 20)
	colA.wait(t, 20)
}

func TestTCPRedialAfterPeerRestart(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	col := newCollector()
	b.SetHandler(col.handler)
	if err := a.Send(b.Element(), []byte("1")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	b.Close()
	time.Sleep(20 * time.Millisecond)
	// First send may fail (cached conn broken + listener gone): either
	// an error now or success into a void is acceptable, but it must
	// not hang or panic.
	a.Send(b.Element(), []byte("2"))
	a.Send(b.Element(), []byte("3"))
}

func TestTCPRejectsOversizeFrame(t *testing.T) {
	tr := &TCP{}
	a, _ := tr.NewEndpoint()
	defer a.Close()
	b, _ := tr.NewEndpoint()
	defer b.Close()
	huge := make([]byte, maxFrame+1)
	if err := a.Send(b.Element(), huge); err == nil {
		t.Error("oversize frame accepted")
	}
}

func TestFabricSendAfterFabricClose(t *testing.T) {
	f := NewFabric(nil)
	a, _ := f.NewEndpoint()
	b, _ := f.NewEndpoint()
	f.Close()
	if err := a.Send(b.Element(), []byte("x")); err != ErrClosed {
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
