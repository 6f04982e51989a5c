// Package oa implements Legion Object Addresses (§3.4) — the low-level,
// communication-facility-meaningful addresses that LOIDs are bound to.
//
// An Object Address Element is a 32-bit address type field plus 256 bits
// of address-specific information. An Object Address is a list of
// elements together with semantic information describing how the list is
// to be used; the semantics encapsulate the multicast/replication forms
// of §4.3 (send to all, pick one at random, use k of N, ordered
// failover).
package oa

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
)

// PayloadSize is the size in bytes of the address-specific information
// in an element (the paper's 256 bits).
const PayloadSize = 32

// ElementSize is the encoded size of one Object Address Element.
const ElementSize = 4 + PayloadSize

// AddrType identifies the kind of address carried in an element's
// payload (the paper's "address type field": IP, XTP, ...).
type AddrType uint32

const (
	// TypeNil marks an empty element.
	TypeNil AddrType = 0
	// TypeIP is an IPv4 address plus 16-bit port, optionally followed
	// by a 32-bit platform-specific node number for multiprocessors.
	TypeIP AddrType = 1
	// TypeMem is an in-process simulated endpoint used by the mem
	// transport and the system simulator: a 64-bit endpoint id.
	TypeMem AddrType = 2
	// TypeIP6 is an IPv6 address plus 16-bit port.
	TypeIP6 AddrType = 3
)

func (t AddrType) String() string {
	switch t {
	case TypeNil:
		return "nil"
	case TypeIP:
		return "ip"
	case TypeMem:
		return "mem"
	case TypeIP6:
		return "ip6"
	default:
		return fmt.Sprintf("type%d", uint32(t))
	}
}

// Element is one Object Address Element: an address type plus 256 bits
// of address-specific information. Element is comparable.
type Element struct {
	Type    AddrType
	Payload [PayloadSize]byte
}

// Semantic describes how the element list of an Object Address is to be
// used (§3.4, §4.3).
type Semantic uint8

const (
	// SemOne: the address has a single meaningful element (the common,
	// unreplicated case); equivalent to SemOrdered over one element.
	SemOne Semantic = iota
	// SemAll: send to every element (replicated object, write-all).
	SemAll
	// SemRandom: choose one element at random.
	SemRandom
	// SemKofN: send to K of the N elements (K carried in the address).
	SemKofN
	// SemOrdered: try elements in order until one succeeds (failover).
	SemOrdered
)

func (s Semantic) String() string {
	switch s {
	case SemOne:
		return "one"
	case SemAll:
		return "all"
	case SemRandom:
		return "random"
	case SemKofN:
		return "k-of-n"
	case SemOrdered:
		return "ordered"
	default:
		return fmt.Sprintf("sem%d", uint8(s))
	}
}

// Address is a Legion Object Address: a list of elements plus the
// semantic describing how the list is used. K is meaningful only for
// SemKofN.
type Address struct {
	Semantic Semantic
	K        uint8
	Elements []Element
}

// IsZero reports whether a carries no elements.
func (a Address) IsZero() bool { return len(a.Elements) == 0 }

// Single wraps one element in a SemOne address.
func Single(e Element) Address {
	return Address{Semantic: SemOne, Elements: []Element{e}}
}

// Replicated builds an address over elems with the given semantic; k is
// used only by SemKofN.
func Replicated(sem Semantic, k uint8, elems ...Element) Address {
	return Address{Semantic: sem, K: k, Elements: elems}
}

// Primary returns the first element, or a zero element if empty. Most
// point-to-point paths use Primary; replication-aware senders consult
// Semantic.
func (a Address) Primary() Element {
	if len(a.Elements) == 0 {
		return Element{}
	}
	return a.Elements[0]
}

// Equal reports whether two addresses are identical (same semantic, K,
// and element list in order).
func (a Address) Equal(b Address) bool {
	if a.Semantic != b.Semantic || a.K != b.K || len(a.Elements) != len(b.Elements) {
		return false
	}
	for i := range a.Elements {
		if a.Elements[i] != b.Elements[i] {
			return false
		}
	}
	return true
}

func (a Address) String() string {
	var sb strings.Builder
	sb.WriteString(a.Semantic.String())
	if a.Semantic == SemKofN {
		fmt.Fprintf(&sb, "(k=%d)", a.K)
	}
	sb.WriteByte('[')
	for i, e := range a.Elements {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(e.String())
	}
	sb.WriteByte(']')
	return sb.String()
}

func (e Element) String() string {
	switch e.Type {
	case TypeNil:
		return "nil"
	case TypeMem:
		return fmt.Sprintf("mem:%d", binary.BigEndian.Uint64(e.Payload[:8]))
	case TypeIP:
		ip := net.IPv4(e.Payload[0], e.Payload[1], e.Payload[2], e.Payload[3])
		port := binary.BigEndian.Uint16(e.Payload[4:6])
		node := binary.BigEndian.Uint32(e.Payload[6:10])
		if node != 0 {
			return fmt.Sprintf("ip:%s:%d/node%d", ip, port, node)
		}
		return fmt.Sprintf("ip:%s:%d", ip, port)
	case TypeIP6:
		ip := net.IP(e.Payload[0:16])
		port := binary.BigEndian.Uint16(e.Payload[16:18])
		return fmt.Sprintf("ip6:[%s]:%d", ip, port)
	default:
		return fmt.Sprintf("%s:%x", e.Type, e.Payload[:8])
	}
}

// MemElement builds a TypeMem element for in-process endpoint id.
func MemElement(id uint64) Element {
	var e Element
	e.Type = TypeMem
	binary.BigEndian.PutUint64(e.Payload[:8], id)
	return e
}

// MemID extracts the endpoint id from a TypeMem element; ok is false
// for other element types.
func MemID(e Element) (id uint64, ok bool) {
	if e.Type != TypeMem {
		return 0, false
	}
	return binary.BigEndian.Uint64(e.Payload[:8]), true
}

// IPElement builds a TypeIP element from a 4-byte IP, port, and
// optional multiprocessor node number (§3.4: "a 32 bit platform-specific
// internal node number may be used").
func IPElement(ip net.IP, port uint16, node uint32) (Element, error) {
	v4 := ip.To4()
	if v4 == nil {
		return Element{}, fmt.Errorf("oa: %v is not an IPv4 address", ip)
	}
	var e Element
	e.Type = TypeIP
	copy(e.Payload[0:4], v4)
	binary.BigEndian.PutUint16(e.Payload[4:6], port)
	binary.BigEndian.PutUint32(e.Payload[6:10], node)
	return e, nil
}

// IPHostPort extracts "ip:port" in net.Dial form from a TypeIP element.
func IPHostPort(e Element) (string, bool) {
	if e.Type != TypeIP {
		return "", false
	}
	ip := net.IPv4(e.Payload[0], e.Payload[1], e.Payload[2], e.Payload[3])
	port := binary.BigEndian.Uint16(e.Payload[4:6])
	return fmt.Sprintf("%s:%d", ip, port), true
}

// TCPElement parses a "host:port" string into a TypeIP element.
func TCPElement(hostport string) (Element, error) {
	host, portStr, err := net.SplitHostPort(hostport)
	if err != nil {
		return Element{}, fmt.Errorf("oa: %w", err)
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return Element{}, fmt.Errorf("oa: cannot parse IP %q (name resolution is out of scope)", host)
	}
	var port uint16
	if _, err := fmt.Sscanf(portStr, "%d", &port); err != nil {
		return Element{}, fmt.Errorf("oa: bad port %q: %w", portStr, err)
	}
	return IPElement(ip, port, 0)
}

// EncodedSize is the length of a's canonical binary encoding.
func (a Address) EncodedSize() int { return 4 + len(a.Elements)*ElementSize }

// Marshal appends the canonical binary encoding of a to dst:
// semantic(1) k(1) count(2) then count elements of ElementSize bytes.
// dst grows at most once, to at least twice its capacity, so a run of
// addresses appended to one buffer copies it O(log n) times.
func (a Address) Marshal(dst []byte) []byte {
	if n := a.EncodedSize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, max(2*cap(dst), len(dst)+n)), dst...)
	}
	dst = append(dst, byte(a.Semantic), a.K)
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(a.Elements)))
	dst = append(dst, n[:]...)
	for _, e := range a.Elements {
		var t [4]byte
		binary.BigEndian.PutUint32(t[:], uint32(e.Type))
		dst = append(dst, t[:]...)
		dst = append(dst, e.Payload[:]...)
	}
	return dst
}

// Unmarshal decodes an Address from the front of src, returning the
// remainder.
func Unmarshal(src []byte) (Address, []byte, error) {
	if len(src) < 4 {
		return Address{}, src, fmt.Errorf("oa: short address header: %d bytes", len(src))
	}
	var a Address
	a.Semantic = Semantic(src[0])
	a.K = src[1]
	count := int(binary.BigEndian.Uint16(src[2:4]))
	src = src[4:]
	if len(src) < count*ElementSize {
		return Address{}, src, fmt.Errorf("oa: short element list: have %d bytes, need %d", len(src), count*ElementSize)
	}
	if count > 0 {
		a.Elements = make([]Element, count)
		for i := 0; i < count; i++ {
			a.Elements[i].Type = AddrType(binary.BigEndian.Uint32(src[:4]))
			copy(a.Elements[i].Payload[:], src[4:ElementSize])
			src = src[ElementSize:]
		}
	}
	return a, src, nil
}
