package trace

import (
	"sync"
	"testing"
)

func TestRingKeepsNewestAndCountsOverwrites(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Snapshot(); len(got) != 0 || r.Overwritten() != 0 {
		t.Fatalf("empty ring: %d values, %d overwritten", len(got), r.Overwritten())
	}
	for i := 1; i <= 10; i++ {
		v := i
		r.Put(&v)
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring of 4 retained %d values", len(got))
	}
	for i, v := range got {
		if *v != 7+i {
			t.Errorf("slot %d = %d, want %d (the newest 4, oldest first)", i, *v, 7+i)
		}
	}
	if r.Cap() != 4 || r.Written() != 10 || r.Overwritten() != 6 {
		t.Errorf("cap %d written %d overwritten %d, want 4 10 6", r.Cap(), r.Written(), r.Overwritten())
	}
}

// TestRingConcurrentPutSnapshot races writers against a snapshot
// reader (run with -race at several -cpu values): every put is
// counted, and a snapshot never exceeds the capacity or returns nil.
func TestRingConcurrentPutSnapshot(t *testing.T) {
	const writers, puts = 8, 500
	r := NewRing[uint64](64)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			got := r.Snapshot()
			if len(got) > r.Cap() {
				t.Errorf("snapshot of %d values from a ring of %d", len(got), r.Cap())
				return
			}
			for _, v := range got {
				if v == nil || *v == 0 {
					t.Error("snapshot holds an unpublished value")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				seq := r.Claim()
				r.Store(seq, &seq)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if r.Written() != writers*puts || r.Overwritten() != writers*puts-64 {
		t.Fatalf("written %d overwritten %d, want %d and %d", r.Written(), r.Overwritten(), writers*puts, writers*puts-64)
	}
	if got := r.Snapshot(); len(got) != 64 {
		t.Fatalf("full ring snapshot holds %d values, want 64", len(got))
	}
}
