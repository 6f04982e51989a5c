package binding

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loid"
)

// Stats carries cache hit/miss counters. "Objects will maintain a cache
// of bindings; their Binding Agent will only be consulted on a local
// cache miss, or when a stale binding is encountered" (§5.2.1) — the
// counters let experiments E2/E3 measure exactly that.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Expired     uint64 // lookups that found only an expired entry
	Evictions   uint64 // capacity evictions (LRU)
	Invalidated uint64 // explicit invalidations
}

// HitRate returns hits / (hits + misses + expired), or 0 for no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Expired
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// numShards divides the key space so concurrent callers on different
// LOIDs do not contend on one lock. Must be a power of two.
const numShards = 16

// noStamp is the shard.oldest sentinel for "shard holds no entries".
const noStamp = ^uint64(0)

// entry is an intrusive doubly-linked LRU node; prev/next are only
// touched under the owning shard's lock.
type entry struct {
	key   loid.LOID // identity form (key field cleared)
	b     Binding
	stamp uint64 // global LRU logical time of last touch
	prev  *entry
	next  *entry
}

// shard is one lock's worth of the cache: a map plus an intrusive LRU
// list (head = most recently used). oldest mirrors the tail entry's
// stamp so eviction can find the globally least-recently-used entry
// without taking every lock.
type shard struct {
	mu     sync.Mutex
	items  map[loid.LOID]*entry
	head   *entry
	tail   *entry
	oldest atomic.Uint64
}

// Cache is a concurrency-safe TTL+LRU binding cache keyed by LOID
// identity (the public key field does not participate in lookup).
// Internally it is sharded: each shard has its own lock and intrusive
// LRU list, and a global logical clock orders entries across shards so
// capacity eviction still removes the globally least-recently-used
// binding. A capacity of 0 means unbounded. Use NewCache.
type Cache struct {
	cap    int
	shards [numShards]shard
	total  atomic.Int64  // live entries across all shards
	tick   atomic.Uint64 // LRU logical clock
	clock  atomic.Pointer[func() time.Time]
	// spare is the entry the last eviction freed; the next insert takes
	// it instead of allocating, so a full cache's Add allocates nothing.
	spare atomic.Pointer[entry]

	hits        atomic.Uint64
	misses      atomic.Uint64
	expired     atomic.Uint64
	evictions   atomic.Uint64
	invalidated atomic.Uint64
}

// NewCache builds a cache holding at most capacity bindings (0 =
// unbounded).
func NewCache(capacity int) *Cache {
	c := &Cache{cap: capacity}
	now := time.Now
	c.clock.Store(&now)
	for i := range c.shards {
		c.shards[i].items = make(map[loid.LOID]*entry)
		c.shards[i].oldest.Store(noStamp)
	}
	return c
}

// SetClock overrides the cache's time source; tests use it to exercise
// expiry deterministically.
func (c *Cache) SetClock(now func() time.Time) {
	c.clock.Store(&now)
}

func (c *Cache) now() time.Time {
	return (*c.clock.Load())()
}

// shardFor hashes the identity fields of l to a shard. The multiply-
// xorshift mix spreads sequential ClassSpecific values (the common
// allocation pattern) across shards.
func (c *Cache) shardFor(k loid.LOID) *shard {
	h := k.ClassSpecific*0x9E3779B97F4A7C15 ^ k.ClassID*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &c.shards[h&(numShards-1)]
}

// Add inserts or replaces the binding for b.LOID (§3.6 AddBinding).
// Expired bindings are not inserted.
func (c *Cache) Add(b Binding) {
	if !b.ValidAt(c.now()) {
		return
	}
	k := b.LOID.ID()
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.b = b
		s.touch(e, c.tick.Add(1))
		s.mu.Unlock()
		return
	}
	e := c.spare.Swap(nil)
	if e == nil {
		e = new(entry)
	}
	*e = entry{key: k, b: b, stamp: c.tick.Add(1)}
	s.items[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if c.total.Add(1) > int64(c.cap) && c.cap > 0 {
		c.evictOldest()
	}
}

// evictOldest removes globally least-recently-used entries until the
// cache is back within capacity. The victim shard is found by scanning
// the per-shard tail stamps (16 atomic loads), not by locking every
// shard; under concurrent touches this is approximate, but with no
// concurrent mutation it is exact LRU.
func (c *Cache) evictOldest() {
	for c.total.Load() > int64(c.cap) {
		var victim *shard
		best := uint64(noStamp)
		for i := range c.shards {
			if st := c.shards[i].oldest.Load(); st < best {
				best = st
				victim = &c.shards[i]
			}
		}
		if victim == nil {
			return // raced: every shard emptied under us
		}
		victim.mu.Lock()
		e := victim.tail
		if e == nil {
			victim.mu.Unlock()
			continue
		}
		victim.remove(e)
		delete(victim.items, e.key)
		victim.mu.Unlock()
		c.total.Add(-1)
		c.evictions.Add(1)
		// Out of the map and the list, e is unreachable: drop its address
		// and keep it for the next insert.
		*e = entry{}
		c.spare.Store(e)
	}
}

// Get returns the cached, unexpired binding for l, if any.
func (c *Cache) Get(l loid.LOID) (Binding, bool) {
	k := l.ID()
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Binding{}, false
	}
	// Forever-bindings (zero Expires) skip the clock read; hot callers
	// mostly hold those, and reading the wall clock per Get is visible
	// on the fast path.
	if !e.b.Expires.IsZero() && !e.b.ValidAt(c.now()) {
		s.remove(e)
		delete(s.items, k)
		s.mu.Unlock()
		c.total.Add(-1)
		c.expired.Add(1)
		return Binding{}, false
	}
	s.touch(e, c.tick.Add(1))
	b := e.b
	s.mu.Unlock()
	c.hits.Add(1)
	return b, true
}

// InvalidateLOID removes any binding for l (§3.6
// InvalidateBinding(LOID)). It reports whether an entry was removed.
func (c *Cache) InvalidateLOID(l loid.LOID) bool {
	k := l.ID()
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		return false
	}
	s.remove(e)
	delete(s.items, k)
	s.mu.Unlock()
	c.total.Add(-1)
	c.invalidated.Add(1)
	return true
}

// InvalidateBinding removes the binding for b.LOID only if the cached
// binding matches b exactly (§3.6 InvalidateBinding(binding)).
func (c *Cache) InvalidateBinding(b Binding) bool {
	k := b.LOID.ID()
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok || !e.b.Equal(b) {
		s.mu.Unlock()
		return false
	}
	s.remove(e)
	delete(s.items, k)
	s.mu.Unlock()
	c.total.Add(-1)
	c.invalidated.Add(1)
	return true
}

// Len returns the number of cached bindings (including any that have
// expired but have not yet been looked up).
func (c *Cache) Len() int {
	return int(c.total.Load())
}

// Stats returns a snapshot of the cache counters. Counters are atomics,
// so reading them does not serialize concurrent lookups.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Expired:     c.expired.Load(),
		Evictions:   c.evictions.Load(),
		Invalidated: c.invalidated.Load(),
	}
}

// ResetStats zeroes the counters (used between experiment phases).
func (c *Cache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.expired.Store(0)
	c.evictions.Store(0)
	c.invalidated.Store(0)
}

// Clear removes every binding.
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n := len(s.items)
		s.items = make(map[loid.LOID]*entry)
		s.head, s.tail = nil, nil
		s.oldest.Store(noStamp)
		s.mu.Unlock()
		c.total.Add(-int64(n))
	}
}

// Snapshot returns a copy of every unexpired binding, most recently
// used first. Binding Agents use it to propagate bindings to peers
// (§3.6: AddBinding "can be used ... to explicitly propagate binding
// information for performance purposes").
func (c *Cache) Snapshot() []Binding {
	now := c.now()
	type stamped struct {
		b     Binding
		stamp uint64
	}
	all := make([]stamped, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; e = e.next {
			if e.b.ValidAt(now) {
				all = append(all, stamped{e.b, e.stamp})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stamp > all[j].stamp })
	out := make([]Binding, len(all))
	for i, se := range all {
		out[i] = se.b
	}
	return out
}

// --- intrusive LRU list (all methods require s.mu held) ---

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
		s.oldest.Store(e.stamp)
	}
}

func (s *shard) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	if s.tail != nil {
		s.oldest.Store(s.tail.stamp)
	} else {
		s.oldest.Store(noStamp)
	}
}

// touch restamps e and moves it to the front of the LRU list.
func (s *shard) touch(e *entry, stamp uint64) {
	e.stamp = stamp
	if s.head == e {
		if s.tail == e {
			s.oldest.Store(stamp)
		}
		return
	}
	s.remove(e)
	s.pushFront(e)
}
