// Package binding implements Legion bindings (§3.5): first-class
// ⟨LOID, Object Address, expiry⟩ triples that can be passed around the
// system and cached within objects, plus the TTL+LRU binding caches that
// objects and Binding Agents maintain (§3.6, §5.2.1).
package binding

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/loid"
	"repro/internal/oa"
)

// Binding binds a LOID to an Object Address until Expires. A zero
// Expires means the binding never becomes explicitly invalid (§3.5).
type Binding struct {
	LOID    loid.LOID
	Address oa.Address
	// Expires is the time the binding becomes invalid; the zero time
	// means "never".
	Expires time.Time
}

// Forever builds a binding with no explicit expiry.
func Forever(l loid.LOID, a oa.Address) Binding {
	return Binding{LOID: l, Address: a}
}

// Until builds a binding that expires at t.
func Until(l loid.LOID, a oa.Address, t time.Time) Binding {
	return Binding{LOID: l, Address: a, Expires: t}
}

// IsZero reports whether b is the zero binding (no LOID and no address).
func (b Binding) IsZero() bool { return b.LOID.IsNil() && b.Address.IsZero() }

// ValidAt reports whether the binding is valid at time t.
func (b Binding) ValidAt(t time.Time) bool {
	return b.Expires.IsZero() || t.Before(b.Expires)
}

// Equal reports whether two bindings are identical: same object, same
// address, same expiry.
func (b Binding) Equal(o Binding) bool {
	return b.LOID == o.LOID && b.Address.Equal(o.Address) && b.Expires.Equal(o.Expires)
}

func (b Binding) String() string {
	if b.Expires.IsZero() {
		return fmt.Sprintf("%v->%v", b.LOID, b.Address)
	}
	return fmt.Sprintf("%v->%v(until %v)", b.LOID, b.Address, b.Expires.Format(time.RFC3339))
}

// EncodedSize is the length of b's binary encoding.
func (b Binding) EncodedSize() int { return loid.EncodedSize + b.Address.EncodedSize() + 8 }

// Marshal appends the binary encoding of b to dst, growing it at most
// once, to at least twice its capacity (as oa.Address.Marshal). Expiry
// is encoded as Unix nanoseconds, with 0 meaning "never".
func (b Binding) Marshal(dst []byte) []byte {
	if n := b.EncodedSize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, max(2*cap(dst), len(dst)+n)), dst...)
	}
	dst = b.LOID.Marshal(dst)
	dst = b.Address.Marshal(dst)
	var ns int64
	if !b.Expires.IsZero() {
		ns = b.Expires.UnixNano()
	}
	return binary.BigEndian.AppendUint64(dst, uint64(ns))
}

// Unmarshal decodes a Binding from the front of src and returns the
// remainder.
func Unmarshal(src []byte) (Binding, []byte, error) {
	var b Binding
	var err error
	b.LOID, src, err = loid.Unmarshal(src)
	if err != nil {
		return Binding{}, src, fmt.Errorf("binding: %w", err)
	}
	b.Address, src, err = oa.Unmarshal(src)
	if err != nil {
		return Binding{}, src, fmt.Errorf("binding: %w", err)
	}
	if len(src) < 8 {
		return Binding{}, src, fmt.Errorf("binding: short expiry: %d bytes", len(src))
	}
	var ns uint64
	for i := 0; i < 8; i++ {
		ns = ns<<8 | uint64(src[i])
	}
	if ns != 0 {
		b.Expires = time.Unix(0, int64(ns))
	}
	return b, src[8:], nil
}
