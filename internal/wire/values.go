package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
)

// This file provides the typed argument codec used by method
// implementations. Arguments travel as opaque byte strings (a frame's
// argument vector); these helpers give method signatures a compact,
// self-consistent encoding for the types the core objects exchange:
// strings, integers, booleans, LOIDs, Object Addresses, and bindings.

// String encodes a string argument.
func String(s string) []byte { return []byte(s) }

// AsString decodes a string argument.
func AsString(b []byte) string { return string(b) }

// Uint64 encodes an unsigned integer argument.
func Uint64(v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return buf[:]
}

// AsUint64 decodes an unsigned integer argument.
func AsUint64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("wire: uint64 argument has %d bytes", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}

// Int64 encodes a signed integer argument.
func Int64(v int64) []byte { return Uint64(uint64(v)) }

// AsInt64 decodes a signed integer argument.
func AsInt64(b []byte) (int64, error) {
	u, err := AsUint64(b)
	return int64(u), err
}

// Bool encodes a boolean argument.
func Bool(v bool) []byte {
	if v {
		return []byte{1}
	}
	return []byte{0}
}

// AsBool decodes a boolean argument.
func AsBool(b []byte) (bool, error) {
	if len(b) != 1 || b[0] > 1 {
		return false, fmt.Errorf("wire: bad bool argument %v", b)
	}
	return b[0] == 1, nil
}

// LOID encodes a LOID argument.
func LOID(l loid.LOID) []byte { return l.Marshal(nil) }

// AsLOID decodes a LOID argument.
func AsLOID(b []byte) (loid.LOID, error) {
	l, rest, err := loid.Unmarshal(b)
	if err != nil {
		return loid.Nil, err
	}
	if len(rest) != 0 {
		return loid.Nil, fmt.Errorf("wire: %d trailing bytes after LOID", len(rest))
	}
	return l, nil
}

// Address encodes an Object Address argument.
func Address(a oa.Address) []byte { return a.Marshal(nil) }

// AsAddress decodes an Object Address argument.
func AsAddress(b []byte) (oa.Address, error) {
	a, rest, err := oa.Unmarshal(b)
	if err != nil {
		return oa.Address{}, err
	}
	if len(rest) != 0 {
		return oa.Address{}, fmt.Errorf("wire: %d trailing bytes after address", len(rest))
	}
	return a, nil
}

// Binding encodes a binding argument.
func Binding(b binding.Binding) []byte { return b.Marshal(nil) }

// AsBinding decodes a binding argument.
func AsBinding(b []byte) (binding.Binding, error) {
	bd, rest, err := binding.Unmarshal(b)
	if err != nil {
		return binding.Binding{}, err
	}
	if len(rest) != 0 {
		return binding.Binding{}, fmt.Errorf("wire: %d trailing bytes after binding", len(rest))
	}
	return bd, nil
}

// Time encodes a time argument as Unix nanoseconds (zero time → 0).
func Time(t time.Time) []byte {
	if t.IsZero() {
		return Uint64(0)
	}
	return Int64(t.UnixNano())
}

// AsTime decodes a time argument.
func AsTime(b []byte) (time.Time, error) {
	ns, err := AsInt64(b)
	if err != nil {
		return time.Time{}, err
	}
	if ns == 0 {
		return time.Time{}, nil
	}
	return time.Unix(0, ns), nil
}

// Bytes passes a raw byte string through unchanged; it exists for call
// sites to state intent.
func Bytes(b []byte) []byte { return b }

// LOIDList encodes a list of LOIDs.
func LOIDList(ls []loid.LOID) []byte {
	var w Writer
	w.Count32(len(ls))
	for _, l := range ls {
		w.LOID(l)
	}
	return w.Bytes()
}

// AsLOIDList decodes a list of LOIDs.
func AsLOIDList(b []byte) ([]loid.LOID, error) {
	r := NewReader(b)
	n := r.Count32(loid.EncodedSize)
	out := make([]loid.LOID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.LOID())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("LOID list: %w", err)
	}
	return out, nil
}

// BindingList encodes a list of bindings.
func BindingList(bs []binding.Binding) []byte {
	n := 4
	for _, b := range bs {
		n += b.EncodedSize()
	}
	w := NewWriter(make([]byte, 0, n))
	w.Count32(len(bs))
	for _, b := range bs {
		w.Binding(b)
	}
	return w.Bytes()
}

// AsBindingList decodes a list of bindings.
func AsBindingList(b []byte) ([]binding.Binding, error) {
	r := NewReader(b)
	// Each binding is a LOID, an address header and an expiry at least.
	n := r.Count32(loid.EncodedSize + 4 + 8)
	out := make([]binding.Binding, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Binding())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("binding list: %w", err)
	}
	return out, nil
}

// StringList encodes a list of strings.
func StringList(ss []string) []byte {
	var w Writer
	w.Count32(len(ss))
	for _, s := range ss {
		w.Str32(s)
	}
	return w.Bytes()
}

// AsStringList decodes a list of strings.
func AsStringList(b []byte) ([]string, error) {
	r := NewReader(b)
	n := r.Count32(4)
	if n > maxArgs {
		r.Fail(fmt.Errorf("wire: string list length %d exceeds limit", n))
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Str32(maxArgLen))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("string list: %w", err)
	}
	return out, nil
}

// Writer and Reader are the one codec for the byte strings the core
// objects persist and reply with (saved states, OPRs, list and table
// replies): big-endian fixed-width integers, and counts and lengths
// whose prefix width every call names, so a format keeps its bytes.
// The fixed-offset message frame (frame.go) is framed apart.

// Writer appends fields to a byte slice. The zero value starts from
// nil.
type Writer struct{ buf []byte }

// NewWriter returns a Writer that appends to dst.
func NewWriter(dst []byte) Writer { return Writer{buf: dst} }

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.buf }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bool writes one byte, 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Count32 and Count64 write an element count.
func (w *Writer) Count32(n int) { w.U32(uint32(n)) }
func (w *Writer) Count64(n int) { w.U64(uint64(n)) }

// Raw writes b with no length prefix.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Bytes32 and Bytes64 write b after a 4- or 8-byte length; Str32 and
// Str64 do the same for a string.
func (w *Writer) Bytes32(b []byte) { w.U32(uint32(len(b))); w.Raw(b) }
func (w *Writer) Bytes64(b []byte) { w.U64(uint64(len(b))); w.Raw(b) }
func (w *Writer) Str32(s string)   { w.U32(uint32(len(s))); w.buf = append(w.buf, s...) }
func (w *Writer) Str64(s string)   { w.U64(uint64(len(s))); w.buf = append(w.buf, s...) }

func (w *Writer) LOID(l loid.LOID)          { w.buf = l.Marshal(w.buf) }
func (w *Writer) Address(a oa.Address)      { w.buf = a.Marshal(w.buf) }
func (w *Writer) Binding(b binding.Binding) { w.buf = b.Marshal(w.buf) }

// NoCap is the limit of a length prefix whose format sets none: the
// bytes that remain are its only bound.
const NoCap = math.MaxInt

// Reader decodes fields from the front of a byte slice. Its error is
// sticky: the first field that fails sets it, and every later read
// returns a zero value, so a decoder reads a whole record and checks
// once. No read allocates more than the input could hold: a length or
// count larger than the remaining bytes fails before any allocation.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier error stands (a nil err records
// nothing); decoders use it for their own checks, such as a per-format
// cap on a count.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) }

// Rest returns the unread bytes.
func (r *Reader) Rest() []byte { return r.buf }

// Done returns the first error, or an error if any bytes are unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return r.err
}

// Raw returns the next n bytes, aliasing the input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.buf) {
		r.err = fmt.Errorf("wire: truncated: %d bytes left, need %d", len(r.buf), n)
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

func (r *Reader) U8() uint8 {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.Raw(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.Raw(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Count32 and Count64 read an element count and reject one the
// remaining bytes cannot hold at minElemBytes (at least 1) an element.
func (r *Reader) Count32(minElemBytes int) int { return r.count(uint64(r.U32()), minElemBytes) }
func (r *Reader) Count64(minElemBytes int) int { return r.count(r.U64(), minElemBytes) }

func (r *Reader) count(n uint64, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minElemBytes) {
		r.err = fmt.Errorf("wire: count %d exceeds the %d remaining bytes", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Bytes32 and Bytes64 read a 4- or 8-byte length, then that many
// bytes, aliasing the input. A length over max fails.
func (r *Reader) Bytes32(max int) []byte { return r.body(uint64(r.U32()), max) }
func (r *Reader) Bytes64(max int) []byte { return r.body(r.U64(), max) }

// Str32 and Str64 are Bytes32 and Bytes64 copied into a string.
func (r *Reader) Str32(max int) string { return string(r.Bytes32(max)) }
func (r *Reader) Str64(max int) string { return string(r.Bytes64(max)) }

func (r *Reader) body(n uint64, max int) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(max) {
		r.err = fmt.Errorf("wire: length %d exceeds limit %d", n, max)
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = fmt.Errorf("wire: length %d exceeds the %d remaining bytes", n, len(r.buf))
		return nil
	}
	return r.Raw(int(n))
}

func (r *Reader) LOID() loid.LOID {
	if r.err != nil {
		return loid.Nil
	}
	l, rest, err := loid.Unmarshal(r.buf)
	r.buf, r.err = rest, err
	return l
}

func (r *Reader) Address() oa.Address {
	if r.err != nil {
		return oa.Address{}
	}
	a, rest, err := oa.Unmarshal(r.buf)
	r.buf, r.err = rest, err
	return a
}

func (r *Reader) Binding() binding.Binding {
	if r.err != nil {
		return binding.Binding{}
	}
	b, rest, err := binding.Unmarshal(r.buf)
	r.buf, r.err = rest, err
	return b
}
