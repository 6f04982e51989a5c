// Package transport provides the communication facilities Legion
// builds on (§3.3): delivery of encoded frames between endpoints named
// by Object Address Elements. An endpoint has one send path, SendBuf,
// and one receive path, a FrameHandler; both are zero-copy, with frames
// held in reference-counted pooled buffers (package buf). Frames of one
// flow (one sender, one destination) arrive in send order, and a frame
// lost in transit fails the next send to that destination (see
// Endpoint.SendBuf). Two implementations are provided:
//
//   - Fabric: an in-process simulated network with configurable
//     latency, message loss, and link partitions, plus per-link
//     counters. It is the substrate for the scalability experiments —
//     the paper's wide-area testbed substituted per DESIGN.md.
//   - TCP: a real TCP transport for multi-process deployments. One TCP
//     value is one process; its own endpoints reach each other in
//     memory, and only traffic to other processes crosses a socket.
//
// Transports move opaque frames; their encoding (package wire),
// retries, and stale address handling live in the layers above
// (internal/rt).
package transport

import (
	"errors"

	"repro/internal/buf"
	"repro/internal/oa"
)

// ErrUnreachable reports that the destination endpoint does not exist,
// is closed, or is partitioned away. The communication layer maps it to
// wire.ErrUnavailable and treats the binding as suspect.
var ErrUnreachable = errors.New("transport: endpoint unreachable")

// ErrClosed reports use of a closed endpoint or transport.
var ErrClosed = errors.New("transport: closed")

// FrameHandler consumes one received frame, zero-copy. data is the
// frame payload, a view into b — a reference-counted buffer the
// transport holds one reference on for the duration of the call. A
// handler that needs the bytes past its return takes its own reference
// (b.Retain) and releases it when done; no copy is required.
//
// Handlers may run concurrently on one endpoint: each TCP read loop
// calls its own, and a synchronous delivery runs on whichever goroutine
// sent the frame. Implementations must be safe for concurrent use.
//
// sync reports that the delivery runs synchronously on the sender's
// goroutine — the mem transport's zero-latency path, or a TCP frame
// between two endpoints made by the same TCP value: the sender is
// blocked until the handler returns, so the handler may run the method
// inline without stalling unrelated traffic. When sync is false the
// handler runs on a shared transport goroutine (a TCP read loop, a
// delivery pump) and must hand long work off to a mailbox and return
// quickly.
type FrameHandler func(b *buf.Buffer, data []byte, sync bool)

// Endpoint is a send/receive port with a transport-level address.
type Endpoint interface {
	// Element is the Object Address Element other endpoints use to
	// reach this one.
	Element() oa.Element
	// SetFrameHandler installs the frame consumer. It must be called
	// before any frame is sent to the endpoint; until then arriving
	// frames are dropped.
	SetFrameHandler(FrameHandler)
	// SendBuf delivers the contents of b (one whole frame in b.B) to
	// the endpoint named by to without copying: the transport takes its
	// own reference on b for as long as it needs the bytes. The caller
	// keeps its reference and must treat b.B as immutable from the
	// first SendBuf until its own Release — the same buffer may be in
	// flight to several destinations at once.
	//
	// Ordering: frames from one endpoint to one destination reach the
	// destination's handler in SendBuf order (calls that overlap in
	// time are ordered as they enter the transport). Frames of
	// different flows are not ordered with respect to each other. On
	// the same-process paths — the mem Fabric's zero-latency delivery
	// and TCP between endpoints of one TCP value — the handler has run
	// by the time SendBuf returns, which keeps the order trivially;
	// handlers of overlapping sends run concurrently.
	//
	// Loss: a frame can be lost in transit (a connection dies with it
	// in flight), but the loss is counted and surfaced: the next
	// SendBuf to that destination fails with an error wrapping
	// ErrUnreachable. An error otherwise reports a local or addressing
	// failure.
	//
	// The mem Fabric keeps both promises on its zero-latency path and
	// breaks them on purpose when told to model a worse network:
	// SetLatency, SetLinkLatency, SetReorder and SetDuplicate deliver
	// through one time.AfterFunc per frame and promise no order, and
	// SetLoss, SetLinkLoss and Crash drop silently (counted in the
	// fabric's net/* counters, never reported to the sender).
	SendBuf(to oa.Element, b *buf.Buffer) error
	// Close tears the endpoint down and is idempotent; subsequent sends
	// to it fail with ErrUnreachable, and sends from it with ErrClosed.
	Close() error
}

// Transport creates endpoints.
type Transport interface {
	NewEndpoint() (Endpoint, error)
}
