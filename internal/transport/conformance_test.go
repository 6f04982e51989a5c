package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/oa"
)

// harness is one transport under the conformance suite.
type harness struct {
	name string
	// mk builds a fresh transport recording metrics into reg (nil
	// discards) and arranges its teardown.
	mk func(t *testing.T, reg *metrics.Registry) Transport
	// foreign is an element of a type this transport cannot reach.
	foreign oa.Element
	// lossCounter names the counter of frames lost to a dead
	// destination, which the transport also reports to the next Send;
	// empty when loss is silent by design (the fabric's crash drop).
	lossCounter string
}

var (
	fabricHarness = harness{
		name: "fabric",
		mk: func(t *testing.T, reg *metrics.Registry) Transport {
			f := NewFabric(reg)
			t.Cleanup(func() { f.Close() })
			return f
		},
		foreign: oa.Element{Type: oa.TypeIP},
	}
	tcpHarness = harness{
		name:        "tcp",
		mk:          func(t *testing.T, reg *metrics.Registry) Transport { return &TCP{Registry: reg} },
		foreign:     oa.MemElement(1),
		lossCounter: "net/tcp_dropped",
	}
)

// TestTransportConformance holds every transport to the Endpoint
// contract (transport.go): per-flow FIFO, loss counted and surfaced,
// back-pressure, and the Close rules.
func TestTransportConformance(t *testing.T) {
	for _, h := range []harness{fabricHarness, tcpHarness} {
		t.Run(h.name, func(t *testing.T) { transportConformance(t, h) })
	}
}

// endpoints makes n endpoints on a fresh transport, closed at cleanup.
func (h harness) endpoints(t *testing.T, reg *metrics.Registry, n int) []Endpoint {
	t.Helper()
	tr := h.mk(t, reg)
	eps := make([]Endpoint, n)
	for i := range eps {
		ep, err := tr.NewEndpoint()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	return eps
}

func transportConformance(t *testing.T, h harness) {
	t.Run("Delivery", func(t *testing.T) {
		eps := h.endpoints(t, nil, 2)
		col := newCollector()
		eps[1].SetHandler(col.handler)
		if err := eps[0].Send(eps[1].Element(), []byte("hello")); err != nil {
			t.Fatal(err)
		}
		if msgs := col.wait(t, 1); string(msgs[0]) != "hello" {
			t.Errorf("got %q", msgs[0])
		}
	})

	t.Run("PerFlowFIFO", func(t *testing.T) {
		// Eight goroutines share one source endpoint, so their frames
		// contend for the one flow; each goroutine's own sequence must
		// arrive gap-free and in order.
		const senders, per = 8, 2000
		eps := h.endpoints(t, nil, 2)
		src, dst := eps[0], eps[1]
		var mu sync.Mutex
		var next [senders]uint32
		var bad error
		got := 0
		all := make(chan struct{})
		dst.SetHandler(func(data []byte) {
			s, seq := data[0], binary.BigEndian.Uint32(data[1:])
			mu.Lock()
			defer mu.Unlock()
			if seq != next[s] && bad == nil {
				bad = fmt.Errorf("sender %d: seq %d arrived, want %d", s, seq, next[s])
			}
			next[s] = seq + 1
			if got++; got == senders*per {
				close(all)
			}
		})
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				frame := [5]byte{byte(s)}
				for i := uint32(0); i < per; i++ {
					binary.BigEndian.PutUint32(frame[1:], i)
					if err := src.Send(dst.Element(), frame[:]); err != nil {
						t.Errorf("sender %d seq %d: %v", s, i, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		await(t, all, "every frame")
		mu.Lock()
		defer mu.Unlock()
		if bad != nil {
			t.Fatal(bad)
		}
	})

	t.Run("Unreachable", func(t *testing.T) {
		eps := h.endpoints(t, nil, 2)
		a, dead := eps[0], eps[1]
		dead.Close()
		if err := a.Send(dead.Element(), []byte("x")); !errors.Is(err, ErrUnreachable) {
			t.Errorf("send to a closed endpoint: %v, want ErrUnreachable", err)
		}
		if err := a.Send(h.foreign, []byte("x")); !errors.Is(err, ErrUnreachable) {
			t.Errorf("send to a foreign element: %v, want ErrUnreachable", err)
		}
	})

	t.Run("SendAfterClose", func(t *testing.T) {
		eps := h.endpoints(t, nil, 2)
		eps[0].Close()
		if err := eps[0].Send(eps[1].Element(), []byte("x")); !errors.Is(err, ErrClosed) {
			t.Errorf("send from a closed endpoint: %v, want ErrClosed", err)
		}
	})

	t.Run("CloseIdempotent", func(t *testing.T) {
		ep := h.endpoints(t, nil, 1)[0]
		for i := 0; i < 2; i++ {
			if err := ep.Close(); err != nil {
				t.Fatalf("Close #%d: %v", i+1, err)
			}
		}
	})

	t.Run("BackPressure", func(t *testing.T) {
		eps := h.endpoints(t, nil, 2)
		f := startStalledFlow(t, eps[0], eps[1])
		close(f.release)
		await(t, f.all, "every frame after the peer resumed reading")
		if err := <-f.sendErr; err != nil {
			t.Fatal(err)
		}
		if f.bad != nil {
			t.Fatal(f.bad)
		}
	})

	t.Run("CloseReleasesQueued", func(t *testing.T) {
		if !buf.Tracking {
			t.Skip("needs -tags buftrack")
		}
		live0 := buf.Live()
		eps := h.endpoints(t, nil, 2)
		src, dst := eps[0], eps[1]
		f := startStalledFlow(t, src, dst)
		src.Close() // with frames queued behind a write the peer never reads
		close(f.release)
		if err := <-f.sendErr; err == nil {
			t.Error("every send succeeded although the sender closed mid-flow")
		}
		dst.Close()
		deadline := time.Now().Add(2 * time.Second)
		for buf.Live() > live0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := buf.Live(); n > live0 {
			t.Errorf("%d buffers still live after Close:\n%s", n-live0, strings.Join(buf.LiveStacks(), "---\n"))
		}
	})

	t.Run("LossSurfaced", func(t *testing.T) {
		if h.lossCounter == "" {
			t.Skip("loss to a crashed fabric endpoint is silent by design")
		}
		testLossSurfaced(t, h)
	})
}

// testLossSurfaced kills a connected destination and pumps frames at it
// until the loss surfaces: the next Send must fail and the loss counter
// must have moved — frames are never swallowed.
func testLossSurfaced(t *testing.T, h harness) {
	reg := metrics.NewRegistry()
	eps := h.endpoints(t, reg, 2)
	a, b := eps[0], eps[1]
	col := newCollector()
	b.SetHandler(col.handler)

	// Establish the connection.
	if err := a.Send(b.Element(), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)

	// Kill the destination: listener and accepted sockets die, so the
	// writer's socket fails once the kernel notices. The kernel buffers
	// some frames; then a write fails, the redial is refused, and what
	// the writer holds is dropped and reported.
	b.Close()
	payload := make([]byte, 64<<10)
	deadline := time.Now().Add(5 * time.Second)
	var sendErr error
	for sendErr == nil && time.Now().Before(deadline) {
		sendErr = a.Send(b.Element(), payload)
	}
	if sendErr == nil {
		t.Fatal("no send error surfaced after destination death: frames were lost silently")
	}
	if got := reg.Counter(h.lossCounter).Value(); got == 0 {
		t.Errorf("%s = 0; dropped frames were not counted", h.lossCounter)
	}
	t.Logf("surfaced: %v (%s=%d)", sendErr, h.lossCounter, reg.Counter(h.lossCounter).Value())
}

// stalledFlow is one sender pumping stallFrames frames to a peer whose
// handler blocks until release is closed.
type stalledFlow struct {
	release chan struct{}
	all     chan struct{} // closed when the peer has handled every frame
	sendErr chan error    // the sender's first error, or nil once done
	// Written by the one goroutine that runs the peer's handler; read
	// only after all is closed.
	got int64
	bad error // the first frame out of order
}

// stallFrames × stallFrameSize (64 MiB) is several times what a
// loopback socket pair plus the send queue can absorb, so a sender
// that never blocks is a missing back-pressure bound, not a big buffer.
const stallFrames, stallFrameSize = 4096, 16 << 10

// startStalledFlow starts the flow and returns once the sender has
// stopped making progress — the transport pushed back. It fails the
// test if every frame was accepted while the peer read none.
func startStalledFlow(t *testing.T, src, dst Endpoint) *stalledFlow {
	t.Helper()
	f := &stalledFlow{
		release: make(chan struct{}),
		all:     make(chan struct{}),
		sendErr: make(chan error, 1),
	}
	dst.SetHandler(func(data []byte) {
		<-f.release
		if seq := binary.BigEndian.Uint32(data); int64(seq) != f.got && f.bad == nil {
			f.bad = fmt.Errorf("frame %d arrived in position %d", seq, f.got)
		}
		if f.got++; f.got == stallFrames {
			close(f.all)
		}
	})
	var sent atomic.Int64
	go func() {
		frame := make([]byte, stallFrameSize)
		for i := uint32(0); i < stallFrames; i++ {
			binary.BigEndian.PutUint32(frame, i)
			if err := src.Send(dst.Element(), frame); err != nil {
				f.sendErr <- err
				return
			}
			sent.Add(1)
		}
		f.sendErr <- nil
	}()
	last := int64(-1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		n := sent.Load()
		if n == stallFrames {
			close(f.release)
			t.Fatalf("all %d frames (%d MiB) accepted while the peer read none: no back-pressure",
				n, stallFrames*stallFrameSize>>20)
		}
		if n == last {
			return f
		}
		last = n
	}
	close(f.release)
	t.Fatal("sender still making progress after 10s against a peer that reads nothing")
	return nil
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}
