package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/metrics"
	"repro/internal/oa"
)

// maxFrame bounds one TCP frame (matches the wire package's argument
// limits with headroom).
const maxFrame = 32 << 20

// sendQueueDepth bounds the frames queued to one destination; a full
// queue applies backpressure to senders.
const sendQueueDepth = 256

// writerBatch caps how many queued frames one writev gathers. Batching
// amortizes the kernel write; a frame that finds the connection idle is
// written at once, so an isolated message pays no added latency.
const writerBatch = 64

// TCP is a Transport over real TCP sockets, for multi-process Legion
// deployments. Each endpoint owns one listener; messages are
// length-prefixed frames.
//
// Outbound, each destination gets one connection and one FIFO queue.
// The sender that finds no write in progress becomes the writer: it
// drains the queue on its own goroutine, handing up to writerBatch
// frame headers and reference-counted payload buffers to the kernel as
// one writev (net.Buffers), so a frame is never copied between the
// sender and the socket. Senders that arrive while a write is in
// progress enqueue and return; the writer carries their frames in its
// next batch. One queue and one socket per destination is what makes
// frames from one endpoint reach the destination in SendBuf order.
//
// Inbound, every accepted connection (one per remote endpoint) gets its
// own read loop delivering frames in pooled ref-counted buffers.
//
// One TCP value is one process's network. Endpoints made by the same
// value skip the socket: a frame to one of them is delivered on the
// sender's goroutine with sync=true, as the mem fabric's zero-latency
// path does — no dial, no queue, no writer, no read loop. Only frames to
// endpoints of other TCP values (other processes) cross a socket.
type TCP struct {
	// ListenHost is the host/IP to bind listeners on. Defaults to
	// 127.0.0.1, which keeps tests and examples self-contained.
	ListenHost string
	// Registry receives transport metrics (net/tcp_dropped: outbound
	// frames lost when a destination's connection died; net/tcp_dials:
	// dials and redials attempted). Nil discards.
	Registry *metrics.Registry

	// local holds the live endpoints this value made, for same-process
	// delivery.
	local sync.Map // oa.Element -> *tcpEndpoint
}

// NewEndpoint starts a listener on an ephemeral port.
func (t *TCP) NewEndpoint() (Endpoint, error) {
	host := t.ListenHost
	if host == "" {
		host = "127.0.0.1"
	}
	reg := t.Registry
	if reg == nil {
		reg = metrics.Nop
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	addr := ln.Addr().(*net.TCPAddr)
	elem, err := oa.IPElement(addr.IP, uint16(addr.Port), 0)
	if err != nil {
		ln.Close()
		return nil, err
	}
	ep := &tcpEndpoint{
		t:        t,
		ln:       ln,
		elem:     elem,
		accepted: make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
		cDropped: reg.Counter("net/tcp_dropped"),
		cDials:   reg.Counter("net/tcp_dials"),
	}
	t.local.Store(elem, ep)
	go ep.acceptLoop()
	return ep, nil
}

type tcpEndpoint struct {
	t    *TCP // the value that made it; its local registry lists it while open
	ln   net.Listener
	elem oa.Element

	handler atomic.Pointer[FrameHandler]

	// conns maps destination elements to their send-side state. Keyed
	// by the element itself (a comparable value) so the send fast path
	// never formats a host:port string; lock-free once populated.
	conns sync.Map // oa.Element -> *tcpConn

	// amu guards accepted, the inbound sockets currently being read;
	// Close tears them down so a closed endpoint goes fully silent
	// (without this, peers of a dead endpoint would keep writing into
	// still-open sockets and never learn of the death).
	amu      sync.Mutex
	accepted map[net.Conn]struct{}

	// cDropped counts outbound frames lost because a destination's
	// connection died with frames queued or mid-batch (net/tcp_dropped).
	cDropped *metrics.Counter
	// cDials counts dial attempts, first dials and redials alike
	// (net/tcp_dials).
	cDials *metrics.Counter

	done chan struct{}
	once sync.Once
}

// tcpConn is the send side of one destination: one connection and the
// FIFO queue of frames waiting for it.
type tcpConn struct {
	hostport string

	mu      sync.Mutex
	space   sync.Cond     // on mu: the queue shrank, or the endpoint closed
	conn    net.Conn      // nil until dialed, and again after a failure or Close
	queue   []*buf.Buffer // frames not yet handed to the kernel, in SendBuf order
	writing bool          // a sender is draining queue
	dropped uint64        // frames lost since the last report; surfaced on the next SendBuf

	// Writer scratch, touched only by the sender holding writing. out is
	// the copy of iov that writev consumes.
	batch    []*buf.Buffer
	iov, out net.Buffers
	hdrs     [writerBatch][4]byte
}

func (e *tcpEndpoint) Element() oa.Element { return e.elem }

func (e *tcpEndpoint) SetFrameHandler(h FrameHandler) {
	e.handler.Store(&h)
}

func (e *tcpEndpoint) closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

func (e *tcpEndpoint) acceptLoop() {
	backoff := time.Millisecond
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			if e.closed() {
				return
			}
			// Transient accept failure (e.g. fd exhaustion): back off
			// instead of spinning hot on the error.
			select {
			case <-e.done:
				return
			case <-time.After(backoff):
			}
			if backoff < 200*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = time.Millisecond
		e.amu.Lock()
		e.accepted[conn] = struct{}{}
		e.amu.Unlock()
		go e.readLoop(conn)
	}
}

// readChunk is the read loop's accumulation window. It matches
// buf.MaxPooled so the window buffer itself recycles through the pool.
const readChunk = buf.MaxPooled

// readLoop drains one inbound connection with coalesced reads: instead
// of two syscalls per frame (header, then payload), it reads whatever
// the socket has — often a full frame, under load many — into one
// pooled window buffer and carves frames out of it as views. Handlers
// that park a frame past their return take a reference on the window
// (Frame.Own), so frame payloads are never copied out of the read
// buffer; the loop moves to a fresh window when parked references pin
// the current one.
func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		e.amu.Lock()
		delete(e.accepted, conn)
		e.amu.Unlock()
	}()
	rb := buf.GetSize(readChunk)
	defer func() { rb.Release() }()
	start, end := 0, 0 // rb.B[start:end] holds unparsed bytes
	for {
		if start == end {
			// Fully drained. Rewind if we are the only holder; parked
			// frames still viewing this window force a fresh one.
			if rb.Refs() == 1 {
				start, end = 0, 0
			} else {
				rb.Release()
				rb = buf.GetSize(readChunk)
				start, end = 0, 0
			}
		} else if end == len(rb.B) {
			// Out of room with a partial frame in hand: compact it to
			// the front, or — when parked frames pin the window, or the
			// frame is bigger than the window — carry it into a larger
			// fresh buffer.
			need := end - start
			if n := 4 + frameLen(rb.B[start:end]); n > need {
				need = n
			}
			if rb.Refs() == 1 && need <= len(rb.B) {
				copy(rb.B, rb.B[start:end])
			} else {
				size := readChunk
				if need > size {
					size = need
				}
				nb := buf.GetSize(size)
				copy(nb.B, rb.B[start:end])
				rb.Release()
				rb = nb
			}
			end -= start
			start = 0
		}
		n, err := conn.Read(rb.B[end:])
		if n > 0 {
			end += n
			for end-start >= 4 {
				fn := binary.BigEndian.Uint32(rb.B[start:])
				if fn == 0 || fn > maxFrame {
					return
				}
				total := 4 + int(fn)
				if end-start < total {
					break
				}
				if h := e.handler.Load(); h != nil {
					(*h)(rb, rb.B[start+4:start+total], false)
				}
				start += total
			}
		}
		if err != nil {
			return
		}
	}
}

// frameLen reads the pending frame's payload length from a partial
// region (0 when not even the header has arrived yet).
func frameLen(b []byte) int {
	if len(b) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(b))
}

// SendBuf delivers one frame (the whole of b.B). A destination made by
// the same TCP value gets it on this goroutine (sendLocal). Any other is
// sent through its queue, dialing synchronously when there is no live
// connection (so an unreachable destination is still reported to the
// caller). The queue holds its own reference on b until the bytes reach
// the kernel. If no write is in progress, this sender becomes the
// writer and drains the queue before returning.
func (e *tcpEndpoint) SendBuf(to oa.Element, b *buf.Buffer) error {
	if to.Type != oa.TypeIP {
		return ErrUnreachable
	}
	if len(b.B) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b.B))
	}
	if dst, ok := e.t.local.Load(to); ok {
		return e.sendLocal(dst.(*tcpEndpoint), b)
	}
	tc := e.connFor(to)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for {
		if e.closed() {
			return ErrClosed
		}
		if err := tc.lossLocked(); err != nil {
			return err
		}
		if len(tc.queue) < sendQueueDepth {
			break
		}
		tc.space.Wait()
	}
	if tc.conn == nil {
		conn, err := e.dial(tc.hostport)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		tc.conn = conn
	}
	tc.queue = append(tc.queue, b.Retain())
	if tc.writing {
		return nil
	}
	tc.writing = true
	e.drainLocked(tc)
	tc.writing = false
	return tc.lossLocked()
}

// sendLocal delivers b to dst, an endpoint of the same TCP value, on the
// sender's goroutine with sync=true. The sender's reference pins b for
// the call, and no lock is held across the handler. A destination with
// no handler yet drops the frame, as the read loop does.
func (e *tcpEndpoint) sendLocal(dst *tcpEndpoint, b *buf.Buffer) error {
	if e.closed() {
		return ErrClosed
	}
	if dst.closed() {
		return ErrUnreachable
	}
	if h := dst.handler.Load(); h != nil {
		(*h)(b, b.B, true)
	}
	return nil
}

// dial connects to hostport, counted in net/tcp_dials.
func (e *tcpEndpoint) dial(hostport string) (net.Conn, error) {
	e.cDials.Inc()
	return net.Dial("tcp", hostport)
}

// lossLocked consumes the pending drop report. Surfacing the loss as an
// error (instead of dropping silently) lets the rt layer treat the
// destination as unavailable and retransmit.
func (tc *tcpConn) lossLocked() error {
	n := tc.dropped
	if n == 0 {
		return nil
	}
	tc.dropped = 0
	return fmt.Errorf("%w: %d frame(s) to %s lost on connection failure", ErrUnreachable, n, tc.hostport)
}

// drainLocked is the writer: it hands queued frames to the kernel in
// batches of up to writerBatch, one writev each, until the queue is
// empty. Called and returns with tc.mu held; the lock is released for
// each write, so senders keep enqueueing behind the batch in flight.
// On a write error it redials once and keeps draining (the batch caught
// mid-failure is counted and surfaced, never silently lost); a second
// failure, or Close, drops the rest of the queue the same way.
func (e *tcpEndpoint) drainLocked(tc *tcpConn) {
	redialed := false
	for len(tc.queue) > 0 {
		conn := tc.conn
		if conn == nil { // Close, or the redial failed: drop the rest
			for _, b := range tc.queue {
				b.Release()
			}
			e.noteDroppedLocked(tc, uint64(len(tc.queue)))
			clear(tc.queue)
			tc.queue = tc.queue[:0]
			tc.space.Broadcast()
			return
		}
		k := min(len(tc.queue), writerBatch)
		batch := append(tc.batch[:0], tc.queue[:k]...)
		n := copy(tc.queue, tc.queue[k:])
		clear(tc.queue[n:])
		tc.queue = tc.queue[:n]
		tc.space.Broadcast()
		tc.mu.Unlock()

		tc.iov = tc.iov[:0]
		for i, b := range batch {
			binary.BigEndian.PutUint32(tc.hdrs[i][:], uint32(len(b.B)))
			tc.iov = append(tc.iov, tc.hdrs[i][:], b.B)
		}
		tc.out = tc.iov
		_, err := tc.out.WriteTo(conn)
		for _, b := range batch {
			b.Release()
		}
		clear(batch)
		tc.batch = batch

		tc.mu.Lock()
		if err == nil {
			redialed = false
			continue
		}
		// The batch may not have reached the peer (the socket died
		// mid-writev): account it as dropped — TCP gives no delivery
		// receipt, and an undercounted loss is a silent one.
		conn.Close()
		tc.conn = nil
		e.noteDroppedLocked(tc, uint64(len(batch)))
		if !redialed && !e.closed() {
			redialed = true
			if c, derr := e.dial(tc.hostport); derr == nil {
				tc.conn = c
			}
		}
	}
}

// noteDroppedLocked counts n lost frames in net/tcp_dropped and in the
// destination's pending drop report.
func (e *tcpEndpoint) noteDroppedLocked(tc *tcpConn, n uint64) {
	if n == 0 {
		return
	}
	e.cDropped.Add(n)
	tc.dropped += n
}

func (e *tcpEndpoint) connFor(to oa.Element) *tcpConn {
	if v, ok := e.conns.Load(to); ok {
		return v.(*tcpConn)
	}
	hostport, _ := oa.IPHostPort(to) // to.Type checked by the caller
	tc := &tcpConn{hostport: hostport}
	tc.space.L = &tc.mu
	v, _ := e.conns.LoadOrStore(to, tc)
	return v.(*tcpConn)
}

// Close leaves the value's local registry, then stops the listener, the
// inbound sockets and every outbound connection. A writer caught
// mid-write sees its socket fail and drops (releases and counts) what is
// still queued; senders blocked on a full queue wake and get ErrClosed.
func (e *tcpEndpoint) Close() error {
	e.once.Do(func() {
		e.t.local.CompareAndDelete(e.elem, e)
		close(e.done)
		e.ln.Close()
		e.amu.Lock()
		for conn := range e.accepted {
			conn.Close()
		}
		e.amu.Unlock()
		e.conns.Range(func(_, v any) bool {
			tc := v.(*tcpConn)
			tc.mu.Lock()
			if tc.conn != nil {
				tc.conn.Close()
				tc.conn = nil
			}
			tc.space.Broadcast()
			tc.mu.Unlock()
			return true
		})
	})
	return nil
}
