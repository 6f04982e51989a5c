// Package wire defines the Legion message protocol: non-blocking method
// invocations between address-space disjoint objects (§2). A message
// carries the target LOID, the method name, encoded arguments, a
// correlation id, the reply address, and the security environment
// triple of (Responsible Agent, Security Agent, Calling Agent) in which
// every method invocation is performed (§2.4).
package wire

import (
	"fmt"

	"repro/internal/loid"
)

// Kind distinguishes the three message shapes.
type Kind uint8

const (
	// KindRequest asks the target to run a method and reply.
	KindRequest Kind = 1
	// KindReply carries the results of a request.
	KindReply Kind = 2
	// KindOneWay asks the target to run a method with no reply
	// expected (the paper's methods with no return value).
	KindOneWay Kind = 3
)

// Code classifies reply outcomes. The communication layer uses these to
// drive retry/refresh behaviour (§4.1.4: stale addresses are detected by
// the Legion communication layer, which then requests a refresh).
type Code uint16

const (
	// OK: the method ran; Results are valid.
	OK Code = 0
	// ErrApp: the method ran and returned an application-level error.
	ErrApp Code = 1
	// ErrNoSuchMethod: the target exports no such member function.
	ErrNoSuchMethod Code = 2
	// ErrNoSuchObject: the endpoint exists but no longer hosts the
	// target — the sender's binding is stale.
	ErrNoSuchObject Code = 3
	// ErrDenied: the target's MayI refused the invocation (§2.4).
	ErrDenied Code = 4
	// ErrUnavailable: the endpoint could not be reached at all.
	ErrUnavailable Code = 5
	// ErrBadRequest: the message was malformed or arguments failed to
	// decode.
	ErrBadRequest Code = 6
	// ErrDeadlineExceeded: the invocation's propagated deadline expired
	// before the method could run (or before a reply arrived). The
	// answer is definitive — retrying cannot help, the budget is gone.
	ErrDeadlineExceeded Code = 7
)

// Retryable reports reply codes that mean "try another replica or a
// refreshed binding" rather than a definitive answer (§4.1.4, §4.3).
// Every Code constant must appear here explicitly: a new code that is
// not classified is a bug, and the table test in wire_test.go enforces
// the enumeration so an addition cannot silently default wrong.
func Retryable(c Code) bool {
	switch c {
	case ErrNoSuchObject, ErrUnavailable:
		// The endpoint no longer hosts the target / could not be
		// reached: another replica or a refreshed binding may succeed.
		return true
	case OK, ErrApp, ErrNoSuchMethod, ErrDenied, ErrBadRequest, ErrDeadlineExceeded:
		// The target answered (or the budget is spent): definitive.
		return false
	default:
		// Unknown codes are treated as definitive so a protocol
		// extension cannot cause retry storms against old peers.
		return false
	}
}

func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case ErrApp:
		return "app-error"
	case ErrNoSuchMethod:
		return "no-such-method"
	case ErrNoSuchObject:
		return "no-such-object"
	case ErrDenied:
		return "denied"
	case ErrUnavailable:
		return "unavailable"
	case ErrBadRequest:
		return "bad-request"
	case ErrDeadlineExceeded:
		return "deadline-exceeded"
	default:
		return fmt.Sprintf("code%d", uint16(c))
	}
}

// Env is the security environment triple in which a method invocation
// is performed (§2.4): the operative Responsible Agent, Security Agent,
// and Calling Agent.
type Env struct {
	Responsible loid.LOID
	Security    loid.LOID
	Calling     loid.LOID
	// Deadline is the invocation's absolute deadline in Unix
	// nanoseconds (0 = none). It rides the environment so nested calls
	// made on behalf of this invocation inherit the remaining budget
	// instead of each hop arming an independent full timer.
	Deadline int64
	// TraceID/SpanID/ParentSpanID carry the distributed-tracing
	// identity of the caller's span, so the serving side can parent its
	// own span causally. All-zero means the invocation is not traced.
	TraceID      uint64
	SpanID       uint64
	ParentSpanID uint64
}

const (
	magic = 0x4C47 // "LG"
	// version is the one frame version emitted and accepted: the
	// fixed-offset zero-copy layout of frame.go.
	version = 4
)

// maxArgs bounds the argument vector; generous but prevents a corrupt
// length from allocating unboundedly.
const maxArgs = 1 << 16

// maxArgLen bounds one argument (16 MiB).
const maxArgLen = 16 << 20
