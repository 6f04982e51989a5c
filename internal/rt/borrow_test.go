package rt

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// borrowPayload builds a deterministic payload: an 8-byte seed header
// followed by n pattern bytes derived from the seed. The handler and
// the client both recompute the pattern, so any corruption from a
// prematurely recycled transport buffer shows up as a content mismatch
// even when -race stays quiet.
func borrowPayload(seed uint64, n int) []byte {
	p := make([]byte, 8+n)
	binary.BigEndian.PutUint64(p, seed)
	for i := 0; i < n; i++ {
		p[8+i] = byte(seed>>uint((i%8)*8)) ^ byte(i)
	}
	return p
}

func checkBorrowPayload(p []byte) error {
	if len(p) < 8 {
		return fmt.Errorf("short payload: %d bytes", len(p))
	}
	seed := binary.BigEndian.Uint64(p)
	for i, b := range p[8:] {
		if want := byte(seed>>uint((i%8)*8)) ^ byte(i); b != want {
			return fmt.Errorf("payload[%d] = %#x, want %#x (seed %#x, len %d)", i, b, want, seed, len(p))
		}
	}
	return nil
}

// TestBorrowAcrossHandlerReturn exercises the zero-copy buffer
// lifecycle on both transports: request frames are parked in object
// mailboxes past the transport handler's return (pipelined Invokes),
// handlers reply with results that alias the borrowed request bytes,
// and payload sizes straddle the pooled-window size so the TCP read
// loop's rewind, compact, and swap-out paths all run. Run under -race;
// with -tags buftrack it additionally asserts no buffer leaked.
func TestBorrowAcrossHandlerReturn(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		f := transport.NewFabric(nil)
		defer f.Close()
		runBorrowStorm(t, func() transport.Transport { return f })
	})
	t.Run("tcp", func(t *testing.T) {
		reg := metrics.NewRegistry()
		runBorrowStorm(t, ownTCP(reg))
		wantDials(t, reg)
	})
}

// runBorrowStorm runs the storm over two nodes, each built on the
// transport tr returns for it.
func runBorrowStorm(t *testing.T, tr func() transport.Transport) {
	live0 := buf.Live()
	n0, err := NewNode(tr(), nil, "borrow-srv")
	if err != nil {
		t.Fatal(err)
	}
	n1, err := NewNode(tr(), nil, "borrow-cli")
	if err != nil {
		t.Fatal(err)
	}
	iface := idl.NewInterface("BorrowEcho", idl.MethodSig{Name: "EchoV"})
	impl := &Behavior{
		Iface: iface,
		Handlers: map[string]Handler{
			"EchoV": func(inv *Invocation) ([][]byte, error) {
				// The views are only valid during dispatch; verify and
				// echo them — the reply marshal happens before the
				// frame is released, so aliasing is legal.
				if err := checkBorrowPayload(inv.Args[0]); err != nil {
					return nil, err
				}
				return [][]byte{inv.Args[0]}, nil
			},
		},
	}
	if _, err := n0.Spawn(echoLOID, impl, WithConcurrency(4)); err != nil {
		t.Fatal(err)
	}

	// Small frames exercise window rewind; the 60000/70000-byte ones
	// force mid-window compaction and (being larger than one pooled
	// window) the grow-and-swap path of the TCP read loop.
	sizes := []int{0, 16, 900, 60000, 70000}
	const callers = 4
	const iters = 40
	const pipeline = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clientOn(n1, loid.NewNoKey(300, uint64(10+g)))
			c.Timeout = 5 * time.Second
			c.AddBinding(binding.Forever(echoLOID, n0.Address()))
			for i := 0; i < iters; i++ {
				// A burst of pipelined Invokes parks several request
				// frames in the mailbox at once before any is served.
				futures := make([]*Future, 0, pipeline)
				sent := make([][]byte, 0, pipeline)
				for k := 0; k < pipeline; k++ {
					seed := uint64(g)<<32 | uint64(i)<<8 | uint64(k)
					p := borrowPayload(seed, sizes[(i+k)%len(sizes)])
					fu, err := c.InvokeCtx(context.Background(), echoLOID, "EchoV", p)
					if err != nil {
						errs <- err
						return
					}
					futures = append(futures, fu)
					sent = append(sent, p)
				}
				for k, fu := range futures {
					res, err := fu.Wait(5 * time.Second)
					if err != nil {
						errs <- fmt.Errorf("caller %d iter %d/%d: %w", g, i, k, err)
						return
					}
					if res.Code != wire.OK {
						errs <- fmt.Errorf("caller %d iter %d/%d: %v", g, i, k, res.Err())
						return
					}
					out, err := res.Result(0)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(out, sent[k]) {
						errs <- fmt.Errorf("caller %d iter %d/%d: echo mismatch (%d vs %d bytes)", g, i, k, len(out), len(sent[k]))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n1.Close()
	n0.Close()
	if !buf.Tracking {
		return
	}
	// All traffic is drained and both nodes are down: every pooled
	// buffer must have been released. Transport read loops let go of
	// their windows asynchronously on close, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for buf.Live() > live0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := buf.Live(); n > live0 {
		t.Errorf("%d buffers still live after shutdown:\n%s", n-live0, joinStacks(buf.LiveStacks()))
	}
}

func joinStacks(stacks []string) string {
	var b bytes.Buffer
	for i, s := range stacks {
		fmt.Fprintf(&b, "--- live buffer %d ---\n%s", i+1, s)
	}
	return b.String()
}
