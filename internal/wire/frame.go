package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/loid"
	"repro/internal/oa"
)

// Wire v4 is the zero-copy frame layout and the only version spoken:
// a frame with any other version byte is rejected. v4 places every
// fixed-width field at a fixed offset so a receiver can route a frame
// (kind, id, code, target) by reading a handful of words, and decodes
// the variable sections lazily as views into the received buffer: no
// method-string copy and no argument copies on the hot path.
//
//	offset  size  field
//	0       2     magic 0x4C47
//	2       1     version (4)
//	3       1     kind
//	4       8     id
//	12      2     code
//	14      1     reply-to semantic
//	15      1     reply-to K
//	16      2     reply-to element count
//	18      2     method length
//	20      8     deadline (unix nanos, 0 = none)
//	28      8     trace id
//	36      8     span id
//	44      8     parent span id
//	52      48    target LOID
//	100     48    env responsible LOID
//	148     48    env security LOID
//	196     48    env calling LOID
//	244     36×n  reply-to elements
//	...           method bytes
//	...           u32 errText length + bytes
//	...           u32 arg count, then per arg: u32 length + bytes
const (
	v4OffID       = 4
	v4OffCode     = 12
	v4OffReplyHdr = 14
	v4OffMethLen  = 18
	v4OffDeadline = 20 // the trace triple follows it
	v4OffTarget   = 52
	v4OffEnv      = 100 // responsible, security, calling: contiguous
	v4Fixed       = 244
)

// maxMethodLen bounds a v4 method name (u16 length field).
const maxMethodLen = 1<<16 - 1

// fwdFlag is the high bit of the kind byte: set on a frame re-sent by
// a migration tombstone. A forwarded frame is never forwarded again
// (one-hop rule), which bounds tombstone chains and makes A→B→A
// forwarding cycles structurally impossible.
const fwdFlag = 0x80

// waitFlag is the next bit of the kind byte: set on a request whose
// sender blocks on the reply with no deadline of its own, so a receiver
// delivering it on the sender's goroutine may serve it right there
// (rt's mailbox). Only requests carry it, and a forward clears it: the
// forwarder's goroutine is not the one waiting.
const waitFlag = 0x40

// Frame is one lazily-decoded wire message. Parse records section
// offsets into the raw bytes; accessors decode on demand and return
// views into the underlying buffer wherever possible. A Frame is valid
// only while its backing bytes are: a handler that parks a Frame past
// the transport callback must hold a reference on the backing
// buf.Buffer (Own) and Close the frame when done.
type Frame struct {
	data  []byte
	owner *buf.Buffer
	next  *Frame // FrameQueue link; nil while the frame is in no queue

	fwd   bool
	waits bool
	Kind  Kind
	ID    uint64
	Code  Code

	replySem oa.Semantic
	replyK   byte
	nReply   int
	offReply uint32

	offMethod uint32
	methodLen uint32
	offErr    uint32
	errLen    uint32

	nArgs  int
	argOff []uint32 // offset of each argument's u32 length prefix
	argArr [8]uint32
}

var framePool2 = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a pooled Frame ready for Parse.
func GetFrame() *Frame { return framePool2.Get().(*Frame) }

// Own pins the frame's backing buffer: the frame takes its own
// reference, released by Close. Call it when the frame outlives the
// transport handler that delivered the bytes.
func (f *Frame) Own(b *buf.Buffer) {
	f.owner = b.Retain()
}

// Close releases the backing buffer reference (if owned) and recycles
// the frame. The frame and every view obtained from it are invalid
// afterwards.
func (f *Frame) Close() {
	if f.owner != nil {
		f.owner.Release()
		f.owner = nil
	}
	f.data = nil
	if cap(f.argOff) > 1024 {
		f.argOff = nil
	}
	framePool2.Put(f)
}

// FrameQueue is a FIFO of frames threaded through the frames
// themselves: an empty queue is three words and a queued frame costs
// nothing beyond the (pooled) frame, so a holder's memory follows its
// backlog rather than its capacity. A frame sits in at most one queue
// at a time. Not synchronized — the holder's lock guards it. The zero
// value is an empty queue.
type FrameQueue struct {
	head, tail *Frame
	n          int
}

// Len returns the number of queued frames.
func (q *FrameQueue) Len() int { return q.n }

// Push appends f.
func (q *FrameQueue) Push(f *Frame) {
	if q.tail == nil {
		q.head = f
	} else {
		q.tail.next = f
	}
	q.tail = f
	q.n++
}

// Pop removes and returns the oldest frame, nil when the queue is
// empty.
func (q *FrameQueue) Pop() *Frame {
	f := q.head
	if f == nil {
		return nil
	}
	q.head = f.next
	if q.head == nil {
		q.tail = nil
	}
	f.next = nil
	q.n--
	return f
}

// Parse decodes the frame structure of data: eager fixed fields,
// recorded offsets for everything variable. data is retained as a view
// — see the Frame lifetime rules. Only v4 envelopes are accepted.
func (f *Frame) Parse(data []byte) error {
	f.data = data
	f.nArgs = 0
	f.nReply = 0
	if len(data) < 4 {
		return fmt.Errorf("wire: short header")
	}
	if binary.BigEndian.Uint16(data[0:2]) != magic {
		return fmt.Errorf("wire: bad magic %#x", data[0:2])
	}
	if data[2] != version {
		return fmt.Errorf("wire: unsupported version %d", data[2])
	}
	f.Kind = Kind(data[3] &^ (fwdFlag | waitFlag))
	f.fwd = data[3]&fwdFlag != 0
	f.waits = data[3]&waitFlag != 0 && f.Kind == KindRequest
	if len(data) < v4Fixed {
		return fmt.Errorf("wire: short v4 frame: %d bytes", len(data))
	}
	f.ID = binary.BigEndian.Uint64(data[v4OffID:])
	f.Code = Code(binary.BigEndian.Uint16(data[v4OffCode:]))
	f.replySem = oa.Semantic(data[v4OffReplyHdr])
	f.replyK = data[v4OffReplyHdr+1]
	f.nReply = int(binary.BigEndian.Uint16(data[v4OffReplyHdr+2:]))
	f.methodLen = uint32(binary.BigEndian.Uint16(data[v4OffMethLen:]))

	p := uint32(v4Fixed)
	need := uint32(f.nReply) * oa.ElementSize
	if uint32(len(data))-p < need {
		return fmt.Errorf("wire: short reply-to elements")
	}
	f.offReply = p
	p += need
	if uint32(len(data))-p < f.methodLen {
		return fmt.Errorf("wire: short method")
	}
	f.offMethod = p
	p += f.methodLen
	var err error
	if p, err = f.parseErrAndArgs(data, p); err != nil {
		return err
	}
	if p != uint32(len(data)) {
		return fmt.Errorf("wire: %d trailing bytes", uint32(len(data))-p)
	}
	return nil
}

// parseErrAndArgs handles the trailer: errText then the argument
// vector, recording a length-prefix offset per argument.
func (f *Frame) parseErrAndArgs(data []byte, p uint32) (uint32, error) {
	n := uint32(len(data))
	if n-p < 4 {
		return p, fmt.Errorf("wire: err-text: short string length")
	}
	elen := binary.BigEndian.Uint32(data[p:])
	p += 4
	if elen > maxArgLen || n-p < elen {
		return p, fmt.Errorf("wire: err-text: short string body")
	}
	f.offErr = p
	f.errLen = elen
	p += elen
	if n-p < 4 {
		return p, fmt.Errorf("wire: short arg count")
	}
	nargs := binary.BigEndian.Uint32(data[p:])
	p += 4
	if nargs > maxArgs {
		return p, fmt.Errorf("wire: arg count %d exceeds limit", nargs)
	}
	f.nArgs = int(nargs)
	if nargs == 0 {
		return p, nil
	}
	if nargs <= uint32(len(f.argArr)) {
		f.argOff = f.argArr[:0]
	} else if cap(f.argOff) < int(nargs) {
		f.argOff = make([]uint32, 0, nargs)
	} else {
		f.argOff = f.argOff[:0]
	}
	for i := uint32(0); i < nargs; i++ {
		if n-p < 4 {
			return p, fmt.Errorf("wire: short arg %d length", i)
		}
		alen := binary.BigEndian.Uint32(data[p:])
		if alen > maxArgLen {
			return p, fmt.Errorf("wire: arg %d length %d exceeds limit", i, alen)
		}
		if n-p-4 < alen {
			return p, fmt.Errorf("wire: short arg %d body: have %d want %d", i, n-p-4, alen)
		}
		f.argOff = append(f.argOff, p)
		p += 4 + alen
	}
	return p, nil
}

// Forwarded reports whether the frame was re-sent by a migration
// tombstone (one hop already consumed).
func (f *Frame) Forwarded() bool { return f.fwd }

// Waits reports whether the request's sender blocks on its reply with
// no deadline (MarkWaits). A reply or one-way frame never waits.
func (f *Frame) Waits() bool { return f.waits }

// Raw returns the frame's backing bytes — one whole encoded frame —
// valid only while the frame is. A forwarder copies them into a fresh
// buffer (the view may alias a larger transport window) before
// re-sending.
func (f *Frame) Raw() []byte { return f.data }

// MarkForwarded stamps an encoded frame as having consumed its one
// forwarding hop, and clears its wait mark. data must hold a frame
// header (Append* output).
func MarkForwarded(data []byte) {
	if len(data) > 3 {
		data[3] = data[3]&^waitFlag | fwdFlag
	}
}

// MarkWaits stamps an encoded request as one whose sender blocks on the
// reply (Waits). Other kinds are left as they are. data must hold a
// frame header (Append* output).
func MarkWaits(data []byte) {
	if len(data) > 3 && Kind(data[3]&^(fwdFlag|waitFlag)) == KindRequest {
		data[3] |= waitFlag
	}
}

func getLOID(b []byte) loid.LOID {
	var l loid.LOID
	l.ClassID = binary.BigEndian.Uint64(b[0:8])
	l.ClassSpecific = binary.BigEndian.Uint64(b[8:16])
	copy(l.Key[:], b[16:loid.EncodedSize])
	return l
}

// Target decodes the destination LOID.
func (f *Frame) Target() loid.LOID { return getLOID(f.data[v4OffTarget:]) }

// TargetID decodes only the target's identity fields (the routing key),
// skipping the 32-byte public key copy.
func (f *Frame) TargetID() loid.Ident {
	return loid.Ident{
		ClassID:       binary.BigEndian.Uint64(f.data[v4OffTarget:]),
		ClassSpecific: binary.BigEndian.Uint64(f.data[v4OffTarget+8:]),
	}
}

// Deadline returns the propagated absolute deadline in unix nanos.
func (f *Frame) Deadline() int64 {
	return int64(binary.BigEndian.Uint64(f.data[v4OffDeadline:]))
}

// TraceID returns the caller's trace identity (0 = untraced).
func (f *Frame) TraceID() uint64 { return binary.BigEndian.Uint64(f.data[v4OffDeadline+8:]) }

// SpanID returns the caller's span id (0 when untraced).
func (f *Frame) SpanID() uint64 { return binary.BigEndian.Uint64(f.data[v4OffDeadline+16:]) }

// ParentSpanID returns the caller's parent span id.
func (f *Frame) ParentSpanID() uint64 { return binary.BigEndian.Uint64(f.data[v4OffDeadline+24:]) }

// Env decodes the full security environment.
func (f *Frame) Env() Env {
	return Env{
		Responsible:  getLOID(f.data[v4OffEnv:]),
		Security:     getLOID(f.data[v4OffEnv+loid.EncodedSize:]),
		Calling:      getLOID(f.data[v4OffEnv+2*loid.EncodedSize:]),
		Deadline:     f.Deadline(),
		TraceID:      f.TraceID(),
		SpanID:       f.SpanID(),
		ParentSpanID: f.ParentSpanID(),
	}
}

// EnvCalling decodes just the Calling Agent LOID (the reply target).
func (f *Frame) EnvCalling() loid.LOID {
	return getLOID(f.data[v4OffEnv+2*loid.EncodedSize:])
}

// MethodBytes returns the method name as a view into the frame.
func (f *Frame) MethodBytes() []byte {
	return f.data[f.offMethod : f.offMethod+f.methodLen]
}

// Method returns the method name as an interned string: steady-state
// traffic resolves every request's method without allocating.
func (f *Frame) Method() string { return InternMethod(f.MethodBytes()) }

// ErrText returns the reply error text ("" allocates nothing).
func (f *Frame) ErrText() string {
	if f.errLen == 0 {
		return ""
	}
	return string(f.data[f.offErr : f.offErr+f.errLen])
}

// HasReplyTo reports whether the sender supplied a reply address.
func (f *Frame) HasReplyTo() bool { return f.nReply > 0 }

// ReplyToLen returns the number of reply-to elements.
func (f *Frame) ReplyToLen() int { return f.nReply }

// ReplyToElem decodes reply-to element i.
func (f *Frame) ReplyToElem(i int) oa.Element {
	off := f.offReply + uint32(i)*oa.ElementSize
	var e oa.Element
	e.Type = oa.AddrType(binary.BigEndian.Uint32(f.data[off:]))
	copy(e.Payload[:], f.data[off+4:off+oa.ElementSize])
	return e
}

// NumArgs returns the argument count.
func (f *Frame) NumArgs() int { return f.nArgs }

// Arg returns argument i as a view into the frame: valid only while
// the frame's backing buffer is.
func (f *Frame) Arg(i int) []byte {
	off := f.argOff[i]
	n := binary.BigEndian.Uint32(f.data[off:])
	return f.data[off+4 : off+4+n]
}

// ArgViews appends views of all arguments to dst (borrow semantics:
// the views die with the frame's backing buffer).
func (f *Frame) ArgViews(dst [][]byte) [][]byte {
	for i := 0; i < f.nArgs; i++ {
		dst = append(dst, f.Arg(i))
	}
	return dst
}

// --- v4 builders ------------------------------------------------------

func putLOID(b []byte, l loid.LOID) {
	binary.BigEndian.PutUint64(b[0:8], l.ClassID)
	binary.BigEndian.PutUint64(b[8:16], l.ClassSpecific)
	copy(b[16:loid.EncodedSize], l.Key[:])
}

// appendV4 emits one v4 frame. It is the single encoder behind
// AppendRequest and AppendReply.
func appendV4(dst []byte, kind Kind, id uint64, code Code, target loid.LOID,
	method string, env *Env, replyTo oa.Address, errText string, args [][]byte) []byte {
	if len(method) > maxMethodLen {
		panic("wire: method name exceeds v4 length limit")
	}
	var hdr [v4Fixed]byte
	binary.BigEndian.PutUint16(hdr[0:2], magic)
	hdr[2] = version
	hdr[3] = byte(kind)
	binary.BigEndian.PutUint64(hdr[v4OffID:], id)
	binary.BigEndian.PutUint16(hdr[v4OffCode:], uint16(code))
	hdr[v4OffReplyHdr] = byte(replyTo.Semantic)
	hdr[v4OffReplyHdr+1] = replyTo.K
	binary.BigEndian.PutUint16(hdr[v4OffReplyHdr+2:], uint16(len(replyTo.Elements)))
	binary.BigEndian.PutUint16(hdr[v4OffMethLen:], uint16(len(method)))
	binary.BigEndian.PutUint64(hdr[v4OffDeadline:], uint64(env.Deadline))
	binary.BigEndian.PutUint64(hdr[v4OffDeadline+8:], env.TraceID)
	binary.BigEndian.PutUint64(hdr[v4OffDeadline+16:], env.SpanID)
	binary.BigEndian.PutUint64(hdr[v4OffDeadline+24:], env.ParentSpanID)
	putLOID(hdr[v4OffTarget:], target)
	putLOID(hdr[v4OffEnv:], env.Responsible)
	putLOID(hdr[v4OffEnv+loid.EncodedSize:], env.Security)
	putLOID(hdr[v4OffEnv+2*loid.EncodedSize:], env.Calling)
	dst = append(dst, hdr[:]...)
	for i := range replyTo.Elements {
		var eb [oa.ElementSize]byte
		binary.BigEndian.PutUint32(eb[0:4], uint32(replyTo.Elements[i].Type))
		copy(eb[4:], replyTo.Elements[i].Payload[:])
		dst = append(dst, eb[:]...)
	}
	dst = append(dst, method...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(errText)))
	dst = append(dst, errText...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(args)))
	for _, a := range args {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// AppendRequest emits a v4 request (or one-way, per kind): the
// invocation path marshals straight from its inputs into the
// destination buffer.
func AppendRequest(dst []byte, kind Kind, id uint64, target loid.LOID,
	method string, env *Env, replyTo oa.Address, args [][]byte) []byte {
	return appendV4(dst, kind, id, 0, target, method, env, replyTo, "", args)
}

// AppendReply emits a v4 reply. from is the responder's address,
// carried in the reply-to field for health attribution.
func AppendReply(dst []byte, id uint64, target loid.LOID, code Code,
	errText string, results [][]byte, from oa.Address) []byte {
	var env Env
	return appendV4(dst, KindReply, id, code, target, "", &env, from, errText, results)
}

// --- method interning -------------------------------------------------

// internMaxEntries bounds the interning table so hostile traffic full
// of unique method names cannot grow it without bound; internMaxLen
// bounds one entry.
const (
	internMaxEntries = 4096
	internMaxLen     = 256
)

var methodTab atomic.Pointer[map[string]string]
var methodMu sync.Mutex

// InternMethod returns a canonical string for the method-name bytes.
// The lookup is allocation-free for known names (the compiler elides
// the []byte→string conversion in map reads); unknown names are added
// copy-on-write until the table is full.
func InternMethod(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	if m := methodTab.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	methodMu.Lock()
	defer methodMu.Unlock()
	old := methodTab.Load()
	if old != nil {
		if s, ok := (*old)[string(b)]; ok {
			return s
		}
		if len(*old) >= internMaxEntries {
			return string(b)
		}
	}
	s := string(b)
	var nm map[string]string
	if old == nil {
		nm = make(map[string]string, 64)
	} else {
		nm = make(map[string]string, len(*old)+1)
		for k, v := range *old {
			nm[k] = v
		}
	}
	nm[s] = s
	methodTab.Store(&nm)
	return s
}
