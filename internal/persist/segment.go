package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
)

// Segment record layout. Every mutation (put or delete) is one record
// appended to the active segment:
//
//	magic   "LSR1"                      4 bytes
//	kind    1=put 2=delete              1 byte
//	addrLen uint16                      2 bytes
//	payLen  uint32                      4 bytes
//	crc     uint32                      4 bytes   self-CRC, see below
//	chain   uint32                      4 bytes   CRC chain, see below
//	addr    addrLen bytes
//	payload payLen bytes (OPR.Marshal encoding; empty for deletes)
//
// crc is the IEEE CRC32 of kind|addrLen|payLen|addr|payload — it makes
// a record self-validating, so recovery can resync onto a good record
// after a damaged region. chain folds the previous record's chain value
// into this record's crc (crc32.Update over the 4 crc bytes, seeded
// with the predecessor's chain; the first record in a segment chains
// from 0) — it detects dropped or reordered records that are
// individually intact.
const (
	segRecMagic   = "LSR1"
	segRecHdrLen  = 4 + 1 + 2 + 4 + 4 + 4
	segKindPut    = byte(1)
	segKindDelete = byte(2)
	maxSegAddrLen = 4096
	maxSegPayload = maxStateLen + maxImplLen + 64
	segFileMagic  = "LSEGV01\n"
	segFilePrefix = "seg-"
	segFileExt    = ".seg"
)

var (
	// errSegShort reports a record cut off by end-of-data: a crash tail
	// if nothing valid follows, damage if something does.
	errSegShort = errors.New("persist: truncated segment record")
	// errSegMagic reports bytes that are not a record boundary.
	errSegMagic = errors.New("persist: bad segment record magic")
	// errSegCRC reports a record whose self-CRC does not match.
	errSegCRC = fmt.Errorf("%w: segment record checksum mismatch", ErrCorrupt)
)

// segRecord is one decoded segment record.
type segRecord struct {
	kind    byte
	addr    PersistentAddress
	payload []byte // aliases the input buffer; copy before retaining
	crc     uint32
	chain   uint32
	// chainOK is false when the record is self-valid but its chain
	// value does not extend the predecessor — evidence that records
	// between them were lost.
	chainOK bool
}

// chainCRC folds a record's self-CRC into the running chain value.
func chainCRC(prev, crc uint32) uint32 {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], crc)
	return crc32.Update(prev, crc32.IEEETable, b[:])
}

// appendSegRecord appends one encoded record to dst and returns the new
// buffer plus the updated chain value.
func appendSegRecord(dst []byte, kind byte, addr PersistentAddress, payload []byte, prevChain uint32) ([]byte, uint32) {
	dst = append(dst, segRecMagic...)
	bodyAt := len(dst)
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(addr)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	dst = append(dst, 0, 0, 0, 0) // chain placeholder
	dst = append(dst, addr...)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[bodyAt : bodyAt+7])
	crc = crc32.Update(crc, crc32.IEEETable, []byte(addr))
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	chain := chainCRC(prevChain, crc)
	binary.BigEndian.PutUint32(dst[crcAt:], crc)
	binary.BigEndian.PutUint32(dst[crcAt+4:], chain)
	return dst, chain
}

// decodeSegRecord decodes the record at the start of b, validating its
// self-CRC and checking its chain value against prevChain. It returns
// the record and the number of bytes consumed. The payload aliases b.
//
// Errors distinguish the three recovery-relevant shapes: errSegMagic
// (not a boundary — resync), errSegShort (ran out of bytes — crash
// tail or damage), errSegCRC (boundary and length plausible but bytes
// rotted — damage).
func decodeSegRecord(b []byte, prevChain uint32) (segRecord, int, error) {
	if len(b) < segRecHdrLen {
		if len(b) >= 4 && string(b[:4]) != segRecMagic {
			return segRecord{}, 0, errSegMagic
		}
		return segRecord{}, 0, errSegShort
	}
	if string(b[:4]) != segRecMagic {
		return segRecord{}, 0, errSegMagic
	}
	kind := b[4]
	addrLen := int(binary.BigEndian.Uint16(b[5:7]))
	payLen := int(binary.BigEndian.Uint32(b[7:11]))
	if kind != segKindPut && kind != segKindDelete {
		return segRecord{}, 0, errSegCRC
	}
	if addrLen == 0 || addrLen > maxSegAddrLen || payLen > maxSegPayload {
		return segRecord{}, 0, errSegCRC
	}
	total := segRecHdrLen + addrLen + payLen
	if len(b) < total {
		return segRecord{}, 0, errSegShort
	}
	crc := binary.BigEndian.Uint32(b[11:15])
	chain := binary.BigEndian.Uint32(b[15:19])
	got := crc32.ChecksumIEEE(b[4:11])
	got = crc32.Update(got, crc32.IEEETable, b[segRecHdrLen:total])
	if got != crc {
		return segRecord{}, 0, errSegCRC
	}
	rec := segRecord{
		kind:    kind,
		addr:    PersistentAddress(b[segRecHdrLen : segRecHdrLen+addrLen]),
		payload: b[segRecHdrLen+addrLen : total],
		crc:     crc,
		chain:   chain,
		chainOK: chain == chainCRC(prevChain, crc),
	}
	return rec, total, nil
}

// EncodeOPRBatch frames a set of OPRs for one wire message (a host's
// StartObjects and CheckpointBatch): u32 count, then length-prefixed
// OPR encodings, written into one buffer sized up front.
func EncodeOPRBatch(oprs []OPR) []byte {
	n := 4
	for _, o := range oprs {
		n += 8 + o.encodedLen()
	}
	b := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(oprs)))
	for _, o := range oprs {
		b = o.Marshal(binary.BigEndian.AppendUint64(b, uint64(o.encodedLen())))
	}
	return b
}

// DecodeOPRBatch reverses EncodeOPRBatch. The states alias b. Any
// truncation or undecodable entry fails the whole batch.
func DecodeOPRBatch(b []byte) ([]OPR, error) {
	r := wire.NewReader(b)
	// Each entry carries at least its 8-byte length prefix.
	out := make([]OPR, r.Count32(8))
	for i := range out {
		body := r.Bytes64(maxSegPayload)
		if r.Err() != nil {
			break
		}
		o, err := unmarshal(body)
		if err != nil {
			return nil, fmt.Errorf("persist: OPR batch entry %d: %w", i, err)
		}
		out[i] = o
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("persist: OPR batch: %w", err)
	}
	return out, nil
}
