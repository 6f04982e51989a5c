package persist

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// MemStore is an in-memory Store, used by single-process deployments
// and the simulator.
type MemStore struct {
	mu     sync.Mutex
	next   uint64
	objs   map[PersistentAddress]OPR
	now    func() time.Time
	closed bool
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objs: make(map[PersistentAddress]OPR), now: time.Now}
}

// Put implements Store.
func (s *MemStore) Put(o OPR) (PersistentAddress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	return s.putLocked(o), nil
}

// PutBatch implements Store. Memory has no durability round-trip to
// share, so it is Put in a loop under one lock hold.
func (s *MemStore) PutBatch(oprs []OPR) ([]PersistentAddress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	addrs := make([]PersistentAddress, len(oprs))
	for i, o := range oprs {
		addrs[i] = s.putLocked(o)
	}
	return addrs, nil
}

func (s *MemStore) putLocked(o OPR) PersistentAddress {
	if o.Saved.IsZero() {
		o.Saved = s.now()
	}
	s.next++
	addr := PersistentAddress(fmt.Sprintf("opr-%d-%s", s.next, o.LOID))
	// Copy state so later caller mutation can't corrupt the store.
	o.State = append([]byte(nil), o.State...)
	s.objs[addr] = o
	return addr
}

// Get implements Store.
func (s *MemStore) Get(addr PersistentAddress) (OPR, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objs[addr]
	if !ok {
		return OPR{}, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	o.State = append([]byte(nil), o.State...)
	return o, nil
}

// Delete implements Store.
func (s *MemStore) Delete(addrs ...PersistentAddress) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	var missing error
	for _, addr := range addrs {
		if _, ok := s.objs[addr]; !ok {
			if missing == nil {
				missing = fmt.Errorf("%w: %s", ErrNotFound, addr)
			}
			continue
		}
		delete(s.objs, addr)
	}
	return missing
}

// List implements Store.
func (s *MemStore) List() ([]PersistentAddress, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PersistentAddress, 0, len(s.objs))
	for a := range s.objs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Stats implements Store.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{Backend: "mem", Records: len(s.objs)}
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// Len returns the number of stored OPRs.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs)
}
