// Package persist implements Object Persistent Representations and the
// storage they live in (§3.1.1). An OPR is "a sequential set of bytes
// that represents an Inert object, and that can be used by a Magistrate
// to activate the object": here, an implementation-registry name (the
// analogue of the paper's executable file), the saved object state, and
// enough metadata to reconstruct the object's identity. An Object
// Persistent Address names an OPR within a Jurisdiction — "typically a
// file name ... only meaningful within the Jurisdiction in which it
// resides".
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/loid"
)

// ErrNotFound reports a lookup of a persistent address that holds no
// OPR.
var ErrNotFound = errors.New("persist: no such persistent representation")

// ErrCorrupt reports an OPR whose on-disk record failed validation
// (bad checksum, torn write, or undecodable payload). A corrupt OPR is
// quarantined, never silently activated.
var ErrCorrupt = errors.New("persist: corrupt persistent representation")

// ErrClosed reports a write to a store that has been closed.
var ErrClosed = errors.New("persist: store closed")

// PersistentAddress names an OPR inside one Jurisdiction's storage.
type PersistentAddress string

// OPR is an Object Persistent Representation.
type OPR struct {
	// LOID is the identity of the Inert object.
	LOID loid.LOID
	// Impl names the registered implementation used to activate the
	// object (the paper's "executable program, the name of an
	// executable, a list of steps to follow", §4.2).
	Impl string
	// State is the object's SaveState output.
	State []byte
	// Saved records when the OPR was created.
	Saved time.Time
}

// Marshal appends the binary encoding of the OPR to dst.
func (o OPR) Marshal(dst []byte) []byte {
	dst = o.LOID.Marshal(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(o.Impl)))
	dst = append(dst, o.Impl...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(o.State)))
	dst = append(dst, o.State...)
	var ns int64
	if !o.Saved.IsZero() {
		ns = o.Saved.UnixNano()
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(ns))
	return dst
}

// maxStateLen bounds a decoded state blob (256 MiB).
const maxStateLen = 256 << 20

// maxImplLen bounds a decoded implementation name (64 KiB). Like
// maxStateLen, it keeps a malformed OPR from driving a huge allocation
// before the trailer check has a chance to reject it.
const maxImplLen = 1 << 16

// Unmarshal decodes an OPR.
func Unmarshal(src []byte) (OPR, error) {
	var o OPR
	var err error
	o.LOID, src, err = loid.Unmarshal(src)
	if err != nil {
		return OPR{}, fmt.Errorf("persist: %w", err)
	}
	if len(src) < 4 {
		return OPR{}, errors.New("persist: short impl length")
	}
	n := binary.BigEndian.Uint32(src[:4])
	src = src[4:]
	if n > maxImplLen {
		return OPR{}, fmt.Errorf("persist: impl name length %d exceeds limit", n)
	}
	if uint32(len(src)) < n {
		return OPR{}, errors.New("persist: short impl name")
	}
	o.Impl = string(src[:n])
	src = src[n:]
	if len(src) < 8 {
		return OPR{}, errors.New("persist: short state length")
	}
	sn := binary.BigEndian.Uint64(src[:8])
	src = src[8:]
	if sn > maxStateLen {
		return OPR{}, fmt.Errorf("persist: state length %d exceeds limit", sn)
	}
	if uint64(len(src)) < sn {
		return OPR{}, errors.New("persist: short state")
	}
	o.State = append([]byte(nil), src[:sn]...)
	src = src[sn:]
	if len(src) != 8 {
		return OPR{}, fmt.Errorf("persist: bad trailer length %d", len(src))
	}
	if ns := int64(binary.BigEndian.Uint64(src)); ns != 0 {
		o.Saved = time.Unix(0, ns)
	}
	return o, nil
}

// Store is a Jurisdiction's aggregate persistent storage (§2.2). All of
// a Jurisdiction's hosts can reach its Store directly (§3.1: "all of a
// Jurisdiction's persistent storage space must be visible from each of
// its hosts").
type Store interface {
	// Put writes an OPR and returns its persistent address.
	Put(o OPR) (PersistentAddress, error)
	// Get reads the OPR at addr.
	Get(addr PersistentAddress) (OPR, error)
	// Delete removes the OPR at addr; deleting a missing address is an
	// error (ErrNotFound).
	Delete(addr PersistentAddress) error
	// List enumerates every persistent address in the store.
	List() ([]PersistentAddress, error)
}
