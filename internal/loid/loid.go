// Package loid implements Legion Object Identifiers (LOIDs), the
// system-wide persistent names described in §3.2 of "The Core Legion
// Object Model".
//
// A LOID has a 64-bit Class Identifier, a 64-bit Class Specific field,
// and a P-bit Public Key used for security purposes. In this
// implementation P is fixed at 256 bits (32 bytes), which is large
// enough to hold an Ed25519 public key or a SHA-256 key fingerprint.
//
// LOIDs are comparable values and may be used directly as map keys.
package loid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// KeySize is the size in bytes of the public key field (the paper's
// constant P, expressed in bytes).
const KeySize = 32

// EncodedSize is the size of the canonical binary encoding of a LOID.
const EncodedSize = 8 + 8 + KeySize

// Key is the P-bit public key portion of a LOID.
type Key [KeySize]byte

// LOID names a Legion object. The zero value is the reserved "nil LOID"
// which names no object.
type LOID struct {
	// ClassID is the 64-bit Class Identifier handed out by LegionClass.
	ClassID uint64
	// ClassSpecific distinguishes instances of one class. By convention
	// it is zero for class objects; classes typically use it as a
	// sequence number, but Legion does not restrict its use (§3.2).
	ClassSpecific uint64
	// Key is the public key of the object, used for security purposes.
	Key Key
}

// Reserved Class Identifiers for the core Abstract classes (§2.1.3).
// These are fixed by the bootstrap procedure; LegionClass allocates user
// class identifiers starting at FirstUserClassID.
const (
	ClassIDNil          uint64 = 0
	ClassIDLegionObject uint64 = 1
	ClassIDLegionClass  uint64 = 2
	ClassIDLegionHost   uint64 = 3
	ClassIDMagistrate   uint64 = 4
	ClassIDBindingAgent uint64 = 5

	// FirstUserClassID is the first Class Identifier LegionClass hands
	// out to dynamically derived classes.
	FirstUserClassID uint64 = 256
)

// Nil is the zero LOID; it names no object.
var Nil LOID

// New constructs a LOID from its three fields.
func New(classID, classSpecific uint64, key Key) LOID {
	return LOID{ClassID: classID, ClassSpecific: classSpecific, Key: key}
}

// NewNoKey constructs a LOID with an all-zero public key. It is used by
// components that do not participate in the security model.
func NewNoKey(classID, classSpecific uint64) LOID {
	return LOID{ClassID: classID, ClassSpecific: classSpecific}
}

// DeriveKey produces a deterministic pseudo public key from a seed. Real
// deployments install actual public keys; tests and the simulator use
// DeriveKey so that LOIDs are reproducible.
func DeriveKey(seed string) Key {
	return Key(sha256.Sum256([]byte(seed)))
}

// IsNil reports whether l is the nil LOID.
func (l LOID) IsNil() bool { return l == Nil }

// IsClass reports whether l follows the convention for class-object
// LOIDs: a non-zero Class Identifier and a zero Class Specific field
// (§3.7).
func (l LOID) IsClass() bool { return l.ClassID != 0 && l.ClassSpecific == 0 }

// ClassLOID returns the LOID of the class object responsible for
// locating l: the Class Identifier is preserved and the Class Specific
// field is set to zero (§4.1.3). The key field is cleared because the
// class's key is not derivable from an instance LOID; resolution layers
// match class LOIDs on the identifier fields only.
func (l LOID) ClassLOID() LOID {
	return LOID{ClassID: l.ClassID}
}

// SameObject reports whether two LOIDs name the same object, comparing
// only the identifier fields. The public key is an attribute carried for
// security, not part of the name's identity.
func (l LOID) SameObject(o LOID) bool {
	return l.ClassID == o.ClassID && l.ClassSpecific == o.ClassSpecific
}

// ID returns the identity of l with the key field cleared. Components
// that index objects by name use ID() as the map key so that the same
// object presented with and without its key collapses to one entry.
func (l LOID) ID() LOID {
	return LOID{ClassID: l.ClassID, ClassSpecific: l.ClassSpecific}
}

// Ident is the identity of a LOID: its two identifier fields, without
// the key. It is a third the size of the 48-byte LOID that ID()
// returns, and the tables that hold one entry per object (a node's
// objects, a host's residents, a Magistrate's records, a class's
// instances, binding caches) key by it.
type Ident struct {
	ClassID       uint64
	ClassSpecific uint64
}

// Ident returns l's identity.
func (l LOID) Ident() Ident {
	return Ident{ClassID: l.ClassID, ClassSpecific: l.ClassSpecific}
}

// LOID returns the key-less LOID the identity names: the same value
// as ID() of any LOID with this identity.
func (i Ident) LOID() LOID {
	return LOID{ClassID: i.ClassID, ClassSpecific: i.ClassSpecific}
}

// String renders the canonical text form "L<classID>.<classSpecific>",
// followed by a short key fingerprint when the key is non-zero, e.g.
// "L256.17" or "L256.17#a1b2c3d4".
func (l LOID) String() string {
	if l.IsNil() {
		return "L0.0"
	}
	if l.Key == (Key{}) {
		return fmt.Sprintf("L%d.%d", l.ClassID, l.ClassSpecific)
	}
	return fmt.Sprintf("L%d.%d#%x", l.ClassID, l.ClassSpecific, l.Key[:4])
}

// Marshal appends the canonical EncodedSize-byte binary encoding of l to
// dst and returns the extended slice.
func (l LOID) Marshal(dst []byte) []byte {
	var buf [EncodedSize]byte
	binary.BigEndian.PutUint64(buf[0:8], l.ClassID)
	binary.BigEndian.PutUint64(buf[8:16], l.ClassSpecific)
	copy(buf[16:], l.Key[:])
	return append(dst, buf[:]...)
}

// Unmarshal decodes a LOID from the front of src, returning the decoded
// LOID and the remainder of src.
func Unmarshal(src []byte) (LOID, []byte, error) {
	if len(src) < EncodedSize {
		return Nil, src, fmt.Errorf("loid: short encoding: have %d bytes, need %d", len(src), EncodedSize)
	}
	var l LOID
	l.ClassID = binary.BigEndian.Uint64(src[0:8])
	l.ClassSpecific = binary.BigEndian.Uint64(src[8:16])
	copy(l.Key[:], src[16:EncodedSize])
	return l, src[EncodedSize:], nil
}

// FullString renders a lossless text form: like String, but with the
// entire public key in the suffix, so Parse reconstructs the LOID
// exactly. Tools use it to carry keyed identities between processes.
func (l LOID) FullString() string {
	if l.Key == (Key{}) {
		return l.String()
	}
	return fmt.Sprintf("L%d.%d#%x", l.ClassID, l.ClassSpecific, l.Key[:])
}

// Parse parses the text forms produced by String and FullString. A
// full-length key suffix is reconstructed exactly; the short
// fingerprint suffix is lossy and yields a zero key.
func Parse(s string) (LOID, error) {
	if !strings.HasPrefix(s, "L") {
		return Nil, errors.New("loid: missing 'L' prefix")
	}
	body := s[1:]
	var key Key
	if i := strings.IndexByte(body, '#'); i >= 0 {
		suffix := body[i+1:]
		body = body[:i]
		if len(suffix) == hex.EncodedLen(KeySize) {
			if _, err := hex.Decode(key[:], []byte(suffix)); err != nil {
				return Nil, fmt.Errorf("loid: bad key suffix: %w", err)
			}
		}
	}
	dot := strings.IndexByte(body, '.')
	if dot < 0 {
		return Nil, errors.New("loid: missing '.' separator")
	}
	var l LOID
	if _, err := fmt.Sscanf(body[:dot], "%d", &l.ClassID); err != nil {
		return Nil, fmt.Errorf("loid: bad class id %q: %w", body[:dot], err)
	}
	if _, err := fmt.Sscanf(body[dot+1:], "%d", &l.ClassSpecific); err != nil {
		return Nil, fmt.Errorf("loid: bad class specific %q: %w", body[dot+1:], err)
	}
	l.Key = key
	return l, nil
}

// Seq deterministically generates instance LOIDs for a class: instance i
// of the class with identifier classID. It matches the conventional
// sequence-number use of the Class Specific field (§3.2).
func Seq(classID uint64, i uint64) LOID {
	return LOID{ClassID: classID, ClassSpecific: i}
}
