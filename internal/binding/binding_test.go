package binding

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/loid"
	"repro/internal/oa"
)

func bindingFor(classID, specific uint64, addr uint64) Binding {
	return Forever(loid.NewNoKey(classID, specific), oa.Single(oa.MemElement(addr)))
}

func TestValidAt(t *testing.T) {
	now := time.Now()
	b := Forever(loid.NewNoKey(1, 1), oa.Single(oa.MemElement(1)))
	if !b.ValidAt(now) || !b.ValidAt(now.Add(100*time.Hour)) {
		t.Error("Forever binding should always be valid")
	}
	b = Until(b.LOID, b.Address, now.Add(time.Second))
	if !b.ValidAt(now) {
		t.Error("binding invalid before expiry")
	}
	if b.ValidAt(now.Add(2 * time.Second)) {
		t.Error("binding valid after expiry")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(classID, specific, addr uint64, expNs int64) bool {
		b := bindingFor(classID, specific, addr)
		if expNs > 0 {
			b.Expires = time.Unix(0, expNs)
		}
		buf := b.Marshal(nil)
		got, rest, err := Unmarshal(buf)
		return err == nil && len(rest) == 0 && got.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalNeverExpires(t *testing.T) {
	b := bindingFor(7, 8, 9)
	got, _, err := Unmarshal(b.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Expires.IsZero() {
		t.Errorf("round trip lost 'never expires': %v", got.Expires)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	b := bindingFor(1, 2, 3)
	buf := b.Marshal(nil)
	for _, n := range []int{0, loid.EncodedSize - 1, loid.EncodedSize + 1, len(buf) - 1} {
		if _, _, err := Unmarshal(buf[:n]); err == nil {
			t.Errorf("Unmarshal of %d-byte prefix succeeded", n)
		}
	}
}

func TestIsZero(t *testing.T) {
	if !(Binding{}).IsZero() {
		t.Error("zero binding not IsZero")
	}
	if bindingFor(1, 1, 1).IsZero() {
		t.Error("real binding IsZero")
	}
}

func TestCacheAddGet(t *testing.T) {
	c := NewCache(0)
	b := bindingFor(256, 1, 10)
	c.Add(b)
	got, ok := c.Get(b.LOID)
	if !ok || !got.Equal(b) {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheMiss(t *testing.T) {
	c := NewCache(0)
	if _, ok := c.Get(loid.NewNoKey(1, 1)); ok {
		t.Fatal("hit on empty cache")
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheKeyIgnoresPublicKey(t *testing.T) {
	c := NewCache(0)
	withKey := Forever(loid.New(256, 1, loid.DeriveKey("k")), oa.Single(oa.MemElement(1)))
	c.Add(withKey)
	if _, ok := c.Get(loid.NewNoKey(256, 1)); !ok {
		t.Error("lookup without key missed binding stored with key")
	}
}

func TestCacheReplace(t *testing.T) {
	c := NewCache(0)
	l := loid.NewNoKey(256, 1)
	c.Add(Forever(l, oa.Single(oa.MemElement(1))))
	c.Add(Forever(l, oa.Single(oa.MemElement(2))))
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	got, _ := c.Get(l)
	if id, _ := oa.MemID(got.Address.Primary()); id != 2 {
		t.Errorf("replace did not take: addr %d", id)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	b1, b2, b3 := bindingFor(1, 1, 1), bindingFor(1, 2, 2), bindingFor(1, 3, 3)
	c.Add(b1)
	c.Add(b2)
	c.Get(b1.LOID) // touch b1 so b2 is LRU
	c.Add(b3)
	if _, ok := c.Get(b2.LOID); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Get(b1.LOID); !ok {
		t.Error("recently used entry evicted")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d", s.Evictions)
	}
}

// TestCacheAddRecyclesEvicted: once a full cache has evicted an entry,
// Add reuses the evicted entry instead of allocating one, and eviction
// still counts every victim and removes the least recently used.
func TestCacheAddRecyclesEvicted(t *testing.T) {
	const capacity = 64
	bs := make([]Binding, 2*capacity)
	for i := range bs {
		bs[i] = bindingFor(256, uint64(i+1), uint64(i+1))
	}
	c := NewCache(capacity)
	added := 0
	add := func() { c.Add(bs[added%len(bs)]); added++ }
	// One pass fills the cache and starts evicting; the second brings
	// every shard map to the size the cycle needs.
	for added < 2*len(bs) {
		add()
	}
	// One run is a whole cycle of Adds, every one evicting, so the
	// figure is the exact allocation count of the cycle, not an average.
	if allocs := testing.AllocsPerRun(1, func() {
		for range bs {
			add()
		}
	}); allocs != 0 {
		t.Errorf("a cycle of %d evicting Adds allocated %.0f times, want 0", len(bs), allocs)
	}
	if s := c.Stats(); s.Evictions != uint64(added-capacity) {
		t.Errorf("evictions = %d after %d Adds into %d slots", s.Evictions, added, capacity)
	}
	snap := c.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("%d bindings cached, want %d", len(snap), capacity)
	}
	for i, b := range snap { // most recently used first
		if want := bs[(added-1-i)%len(bs)]; !b.Equal(want) {
			t.Fatalf("LRU position %d holds %v, want %v", i, b, want)
		}
	}
	// A touched entry survives the next eviction; the next oldest goes.
	oldest, second := bs[(added-capacity)%len(bs)], bs[(added-capacity+1)%len(bs)]
	c.Get(oldest.LOID)
	add()
	if _, ok := c.Get(oldest.LOID); !ok {
		t.Error("recently touched entry evicted")
	}
	if _, ok := c.Get(second.LOID); ok {
		t.Error("least recently used entry survived")
	}
}

func TestCacheExpiry(t *testing.T) {
	c := NewCache(0)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	l := loid.NewNoKey(1, 1)
	c.Add(Until(l, oa.Single(oa.MemElement(1)), now.Add(time.Minute)))
	if _, ok := c.Get(l); !ok {
		t.Fatal("unexpired binding missed")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get(l); ok {
		t.Fatal("expired binding returned")
	}
	if s := c.Stats(); s.Expired != 1 {
		t.Errorf("stats = %+v", s)
	}
	if c.Len() != 0 {
		t.Error("expired entry not removed")
	}
}

func TestCacheRejectsExpiredAdd(t *testing.T) {
	c := NewCache(0)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	l := loid.NewNoKey(1, 1)
	c.Add(Until(l, oa.Single(oa.MemElement(1)), now.Add(-time.Second)))
	if c.Len() != 0 {
		t.Error("expired binding was inserted")
	}
}

func TestInvalidateLOID(t *testing.T) {
	c := NewCache(0)
	b := bindingFor(1, 1, 1)
	c.Add(b)
	if !c.InvalidateLOID(b.LOID) {
		t.Fatal("InvalidateLOID missed")
	}
	if c.InvalidateLOID(b.LOID) {
		t.Fatal("second InvalidateLOID succeeded")
	}
	if _, ok := c.Get(b.LOID); ok {
		t.Error("binding survived invalidation")
	}
}

func TestInvalidateBindingExactMatch(t *testing.T) {
	c := NewCache(0)
	b := bindingFor(1, 1, 1)
	c.Add(b)
	other := bindingFor(1, 1, 2) // same LOID, different address
	if c.InvalidateBinding(other) {
		t.Error("InvalidateBinding removed a non-matching binding")
	}
	if !c.InvalidateBinding(b) {
		t.Error("InvalidateBinding missed exact match")
	}
}

func TestCacheClearAndSnapshot(t *testing.T) {
	c := NewCache(0)
	c.Add(bindingFor(1, 1, 1))
	c.Add(bindingFor(1, 2, 2))
	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot len = %d", len(snap))
	}
	// Most recently used first.
	if snap[0].LOID.ClassSpecific != 2 {
		t.Errorf("snapshot order wrong: %v", snap)
	}
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear left entries")
	}
}

func TestSnapshotSkipsExpired(t *testing.T) {
	c := NewCache(0)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	c.Add(Until(loid.NewNoKey(1, 1), oa.Single(oa.MemElement(1)), now.Add(time.Second)))
	c.Add(bindingFor(1, 2, 2))
	now = now.Add(time.Minute)
	if snap := c.Snapshot(); len(snap) != 1 || snap[0].LOID.ClassSpecific != 2 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestResetStats(t *testing.T) {
	c := NewCache(0)
	c.Get(loid.NewNoKey(1, 1))
	c.ResetStats()
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("stats after reset = %+v", s)
	}
}

func TestHitRate(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate != 0")
	}
	s := Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				b := bindingFor(uint64(g+1), uint64(i%100), uint64(i))
				c.Add(b)
				c.Get(b.LOID)
				if i%10 == 0 {
					c.InvalidateLOID(b.LOID)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
