package trace

import "sync/atomic"

// Ring is a fixed-size lock-free ring of pointers: the one bounded
// history behind the tracer's spans and the observability plane's
// flight recorder, epoch timeline and merged remote events. A put is
// one atomic add plus one pointer store, so writers never block each
// other or readers. The add doubles as the write count, which lets the
// ring report what it overwrote without a second atomic. A reader
// racing a lapping writer may see a slightly newer value in an old
// slot; Snapshot is still a bounded, coherent window of recent values.
type Ring[T any] struct {
	written atomic.Uint64
	slots   []atomic.Pointer[T]
}

// NewRing builds a ring retaining the newest size values (size >= 1).
func NewRing[T any](size int) *Ring[T] {
	return &Ring[T]{slots: make([]atomic.Pointer[T], max(size, 1))}
}

// Claim reserves the next slot and returns its 1-based sequence
// number; Store fills it. Splitting the two lets a writer stamp the
// sequence number into the value before publishing it.
func (r *Ring[T]) Claim() uint64 { return r.written.Add(1) }

// Store publishes v into the slot seq claimed.
func (r *Ring[T]) Store(seq uint64, v *T) {
	r.slots[(seq-1)%uint64(len(r.slots))].Store(v)
}

// Put appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Put(v *T) { r.Store(r.Claim(), v) }

// Snapshot returns the retained values oldest-first in slot order
// (approximately put order).
func (r *Ring[T]) Snapshot() []*T {
	n := uint64(len(r.slots))
	pos := r.written.Load()
	out := make([]*T, 0, min(pos, n))
	for off := uint64(0); off < n; off++ {
		if v := r.slots[(pos+off)%n].Load(); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// Cap is the number of values the ring retains.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Written counts every value ever claimed.
func (r *Ring[T]) Written() uint64 { return r.written.Load() }

// Overwritten counts the values lost to wrap-around, computed from the
// write count on read.
func (r *Ring[T]) Overwritten() uint64 {
	if w, n := r.Written(), uint64(len(r.slots)); w > n {
		return w - n
	}
	return 0
}
