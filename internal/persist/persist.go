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
	"errors"
	"fmt"
	"time"

	"repro/internal/loid"
	"repro/internal/wire"
)

// ErrNotFound reports a lookup of a persistent address that holds no
// OPR.
var ErrNotFound = errors.New("persist: no such persistent representation")

// ErrCorrupt reports an OPR whose on-disk record failed validation
// (bad checksum, torn write, or undecodable payload). A corrupt OPR is
// quarantined, never silently activated.
var ErrCorrupt = errors.New("persist: corrupt persistent representation")

// ErrFileLayout reports a directory written in the retired
// one-file-per-OPR layout (opr-N-C-S.opr). The segment store cannot
// read it, and opening it empty would orphan every record a restored
// Magistrate points at.
var ErrFileLayout = errors.New("persist: directory holds the retired one-file-per-OPR layout, which the segment store does not read")

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
	w := wire.NewWriter(dst)
	w.LOID(o.LOID)
	w.Str32(o.Impl)
	w.Bytes64(o.State)
	var ns int64
	if !o.Saved.IsZero() {
		ns = o.Saved.UnixNano()
	}
	w.U64(uint64(ns))
	return w.Bytes()
}

// maxStateLen bounds a decoded state blob (256 MiB).
const maxStateLen = 256 << 20

// maxImplLen bounds a decoded implementation name (64 KiB). Like
// maxStateLen, it keeps a malformed OPR from driving a huge allocation
// before the trailer check has a chance to reject it.
const maxImplLen = 1 << 16

// encodedLen is the length of o's Marshal encoding.
func (o OPR) encodedLen() int { return loid.EncodedSize + 4 + len(o.Impl) + 8 + len(o.State) + 8 }

// Unmarshal decodes an OPR. Its state is a copy of src's.
func Unmarshal(src []byte) (OPR, error) {
	o, err := unmarshal(src)
	o.State = append([]byte(nil), o.State...)
	return o, err
}

// unmarshal decodes an OPR whose state aliases src.
func unmarshal(src []byte) (OPR, error) {
	r := wire.NewReader(src)
	o := OPR{LOID: r.LOID(), Impl: r.Str32(maxImplLen), State: r.Bytes64(maxStateLen)}
	ns := int64(r.U64())
	if err := r.Done(); err != nil {
		return OPR{}, fmt.Errorf("persist: %w", err)
	}
	if ns != 0 {
		o.Saved = time.Unix(0, ns)
	}
	return o, nil
}

// Store is a Jurisdiction's aggregate persistent storage (§2.2). All of
// a Jurisdiction's hosts can reach its Store directly (§3.1: "all of a
// Jurisdiction's persistent storage space must be visible from each of
// its hosts"). Checkpoint writes and recovery reads go through this one
// contract; the conformance suite holds every backend to it.
type Store interface {
	// Put writes an OPR and returns its persistent address.
	Put(o OPR) (PersistentAddress, error)
	// PutBatch writes several OPRs with one durability round-trip (one
	// group commit on the segment backend). Addresses are returned in
	// input order.
	PutBatch(oprs []OPR) ([]PersistentAddress, error)
	// Get reads the OPR at addr. A record that fails validation is
	// reported as ErrCorrupt, never returned.
	Get(addr PersistentAddress) (OPR, error)
	// Delete removes the OPRs at addrs with one durability round-trip
	// (one group commit on the segment backend). A missing address is
	// an error (ErrNotFound); the others are still removed.
	Delete(addrs ...PersistentAddress) error
	// List enumerates every persistent address in the store.
	List() ([]PersistentAddress, error)
	// Stats is a point-in-time view of the store for the observability
	// plane.
	Stats() StoreStats
	// Close fences writers: Put, PutBatch and Delete return ErrClosed
	// from then on, while reads keep working. Closing twice is harmless.
	Close() error
}

// StoreStats is a point-in-time view of a backend's internals.
type StoreStats struct {
	Backend     string
	Records     int    // live records (current OPRs)
	Segments    int    // segment files (segment backend; 0 otherwise)
	Quarantined int    // corrupt records moved aside over this store's lifetime
	GCSegments  int    // segments reclaimed by compaction
	GCRecords   int    // dead records dropped by compaction
	GroupCommit uint64 // fsync batches issued (segment backend)
}

// Backends lists the names Open accepts. The conformance suite iterates
// it, so both backends are held to one contract.
func Backends() []string { return []string{"mem", "segment"} }

// Open builds a Store by backend name: "mem" (dir and opts unused) or
// "segment", a segment log rooted at dir.
func Open(backend, dir string, opts SegmentOptions) (Store, error) {
	switch backend {
	case "mem":
		return NewMemStore(), nil
	case "segment":
		return NewSegmentStore(dir, opts)
	}
	return nil, fmt.Errorf("persist: unknown store backend %q (have %v)", backend, Backends())
}
