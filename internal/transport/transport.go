// Package transport provides the communication facilities Legion
// builds on (§3.3): delivery of encoded messages between endpoints
// named by Object Address Elements. Two implementations are provided:
//
//   - Fabric: an in-process simulated network with configurable
//     latency, message loss, and link partitions, plus per-link
//     counters. It is the substrate for the scalability experiments —
//     the paper's wide-area testbed substituted per DESIGN.md.
//   - TCP: a real TCP transport for multi-process deployments.
//
// Transports move opaque byte strings; framing, retries, and stale
// address handling live in the layers above (internal/rt).
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

// Handler consumes one received message. Handlers are called
// sequentially per endpoint; implementations hand off to mailboxes and
// return quickly. The data buffer is only valid for the duration of
// the call — transports recycle receive buffers — so a handler that
// needs the bytes afterwards must copy them (decoding into an owned
// structure, as wire.Unmarshal does, counts).
type Handler func(data []byte)

// FrameHandler is the zero-copy message consumer. data is the frame
// payload, a view into b — a reference-counted buffer the transport
// holds one reference on for the duration of the call. A handler that
// needs the bytes past its return takes its own reference (b.Retain)
// and releases it when done; no copy is required.
//
// sync reports that the delivery runs synchronously on the sender's
// goroutine (the mem transport's zero-latency path): the sender is
// blocked until the handler returns, so the handler may run the method
// inline without stalling unrelated traffic. When sync is false the
// handler runs on a shared transport goroutine (a TCP read loop, a
// delivery pump) and must hand long work off to a mailbox.
type FrameHandler func(b *buf.Buffer, data []byte, sync bool)

// Endpoint is a send/receive port with a transport-level address.
type Endpoint interface {
	// Element is the Object Address Element other endpoints use to
	// reach this one.
	Element() oa.Element
	// SetHandler installs a copy-contract message consumer (see
	// Handler). One of SetHandler/SetFrameHandler must be called
	// before any message is sent to the endpoint.
	SetHandler(Handler)
	// SetFrameHandler installs the zero-copy consumer; it supersedes
	// any Handler installed via SetHandler.
	SetFrameHandler(FrameHandler)
	// Send delivers data to the endpoint named by to.
	//
	// Ordering: frames from one endpoint to one destination reach the
	// destination's handler in Send order (calls that overlap in time
	// are ordered as they enter the transport). Frames of different
	// flows are not ordered with respect to each other.
	//
	// Loss: a frame can be lost in transit (a connection dies with it
	// in flight), but the loss is counted and surfaced: the next Send
	// to that destination fails with an error wrapping ErrUnreachable.
	// An error otherwise reports a local or addressing failure.
	//
	// The mem Fabric keeps both promises on its zero-latency path and
	// breaks them on purpose when told to model a worse network:
	// SetLatency, SetLinkLatency, SetReorder and SetDuplicate deliver
	// through one time.AfterFunc per frame and promise no order, and
	// SetLoss, SetLinkLoss and Crash drop silently (counted in the
	// fabric's net/* counters, never reported to the sender).
	//
	// The data buffer is not referenced after Send returns.
	Send(to oa.Element, data []byte) error
	// SendBuf delivers the contents of b (one whole frame in b.B) to
	// the endpoint named by to without copying: the transport takes its
	// own reference on b for as long as it needs the bytes. The caller
	// keeps its reference and must treat b.B as immutable from the
	// first SendBuf until its own Release — the same buffer may be
	// in flight to several destinations at once.
	SendBuf(to oa.Element, b *buf.Buffer) error
	// Close tears the endpoint down and is idempotent; subsequent sends
	// to it fail with ErrUnreachable, and sends from it with ErrClosed.
	Close() error
}

// Transport creates endpoints.
type Transport interface {
	NewEndpoint() (Endpoint, error)
}
