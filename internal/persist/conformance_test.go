package persist

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/loid"
)

// storeConformance is the shared Store contract suite: every Store
// implementation (MemStore, FileStore, whatever comes next) must pass
// it unchanged. mk builds a fresh empty store per subtest.
func storeConformance(t *testing.T, mk func(t *testing.T) Store) {
	t.Run("RoundTrip", func(t *testing.T) {
		s := mk(t)
		o := sampleOPR()
		addr, err := s.Put(o)
		if err != nil || addr == "" {
			t.Fatalf("Put = %q, %v", addr, err)
		}
		got, err := s.Get(addr)
		if err != nil {
			t.Fatal(err)
		}
		if got.LOID != o.LOID || got.Impl != o.Impl || string(got.State) != string(o.State) || !got.Saved.Equal(o.Saved) {
			t.Errorf("Get = %+v, want %+v", got, o)
		}
	})
	t.Run("SavedStamped", func(t *testing.T) {
		s := mk(t)
		addr, _ := s.Put(OPR{LOID: loid.NewNoKey(256, 1), Impl: "x"})
		got, _ := s.Get(addr)
		if got.Saved.IsZero() {
			t.Error("Put did not stamp Saved on a zero-time OPR")
		}
	})
	t.Run("EmptyStateAndImpl", func(t *testing.T) {
		s := mk(t)
		addr, err := s.Put(OPR{LOID: loid.NewNoKey(256, 2)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(addr)
		if err != nil || got.Impl != "" || len(got.State) != 0 {
			t.Errorf("empty OPR round trip = %+v, %v", got, err)
		}
	})
	t.Run("NotFound", func(t *testing.T) {
		s := mk(t)
		if _, err := s.Get("no-such-address"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get missing = %v, want ErrNotFound", err)
		}
		if err := s.Delete("no-such-address"); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete missing = %v, want ErrNotFound", err)
		}
	})
	t.Run("UniqueAddresses", func(t *testing.T) {
		s := mk(t)
		o := sampleOPR()
		a1, _ := s.Put(o)
		a2, _ := s.Put(o) // same LOID twice: both live, distinct names
		if a1 == a2 {
			t.Fatalf("duplicate address %q for two Puts", a1)
		}
		if _, err := s.Get(a1); err != nil {
			t.Errorf("first record lost: %v", err)
		}
	})
	t.Run("DeleteRemoves", func(t *testing.T) {
		s := mk(t)
		addr, _ := s.Put(sampleOPR())
		if err := s.Delete(addr); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(addr); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get after Delete = %v", err)
		}
		if err := s.Delete(addr); !errors.Is(err, ErrNotFound) {
			t.Errorf("double Delete = %v", err)
		}
	})
	t.Run("ListComplete", func(t *testing.T) {
		s := mk(t)
		want := map[PersistentAddress]bool{}
		for i := 0; i < 5; i++ {
			a, err := s.Put(OPR{LOID: loid.NewNoKey(256, uint64(i+1)), Impl: fmt.Sprintf("impl-%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			want[a] = true
		}
		list, err := s.List()
		if err != nil || len(list) != len(want) {
			t.Fatalf("List = %v, %v", list, err)
		}
		for _, a := range list {
			if !want[a] {
				t.Errorf("List invented address %q", a)
			}
		}
	})
	t.Run("StateIsolation", func(t *testing.T) {
		s := mk(t)
		o := sampleOPR()
		addr, _ := s.Put(o)
		o.State[0] = 'X' // caller mutates its buffer after Put
		got, _ := s.Get(addr)
		if got.State[0] == 'X' {
			t.Error("store shares state buffer with the writer")
		}
		got.State[0] = 'Y' // reader mutates its copy
		again, _ := s.Get(addr)
		if again.State[0] == 'Y' {
			t.Error("store shares state buffer with the reader")
		}
	})
	t.Run("ConcurrentPutGetDelete", func(t *testing.T) {
		// Mixed mutation under the race detector: half the writers
		// delete their record after re-reading it, while a scanner
		// Lists and Gets everything it can see. Every record must end
		// the run either readable-and-correct or cleanly deleted.
		s := mk(t)
		const n = 24
		var wg sync.WaitGroup
		kept := make([]PersistentAddress, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				o := OPR{LOID: loid.NewNoKey(256, uint64(i+1)), Impl: "x", State: []byte{byte(i)}}
				a, err := s.Put(o)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := s.Get(a)
				if err != nil || got.State[0] != byte(i) {
					t.Errorf("readback %d = %+v, %v", i, got, err)
					return
				}
				if i%2 == 1 {
					if err := s.Delete(a); err != nil {
						t.Errorf("delete %d: %v", i, err)
					}
					return
				}
				kept[i] = a
			}(i)
		}
		// Concurrent scanner: List/Get may race with deletes, so a
		// NotFound is fine; a corrupt read or panic is not.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				addrs, err := s.List()
				if err != nil {
					t.Errorf("List: %v", err)
					return
				}
				for _, a := range addrs {
					if _, err := s.Get(a); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Get %s during churn: %v", a, err)
					}
				}
			}
		}()
		wg.Wait()
		for i := 0; i < n; i += 2 {
			got, err := s.Get(kept[i])
			if err != nil || got.State[0] != byte(i) {
				t.Errorf("survivor %d = %+v, %v", i, got, err)
			}
		}
	})
	t.Run("SnapshotRoundTrip", func(t *testing.T) {
		// Every built-in backend must export a bulk-adoption snapshot.
		s := mk(t)
		exp, ok := s.(SnapshotExporter)
		if !ok {
			t.Fatalf("%T does not implement SnapshotExporter", s)
		}
		var addrs []PersistentAddress
		for i := 0; i < 4; i++ {
			a, err := s.Put(OPR{LOID: loid.NewNoKey(256, uint64(i+1)), Impl: "w", State: []byte{byte(i), 0xEE}})
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
		}
		blob, err := exp.ExportSnapshot(addrs)
		if err != nil {
			t.Fatal(err)
		}
		gotAddrs, oprs, err := DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotAddrs) != len(addrs) || len(oprs) != len(addrs) {
			t.Fatalf("snapshot decoded %d/%d records, want %d", len(gotAddrs), len(oprs), len(addrs))
		}
		for i, o := range oprs {
			if gotAddrs[i] != addrs[i] || o.State[0] != byte(i) {
				t.Errorf("snapshot record %d = %s %+v", i, gotAddrs[i], o)
			}
		}
		// Truncation anywhere must be an error, never a partial set.
		if _, _, err := DecodeSnapshot(blob[:len(blob)-3]); err == nil {
			t.Error("truncated snapshot decoded without error")
		}
	})
	t.Run("ConcurrentPuts", func(t *testing.T) {
		s := mk(t)
		const n = 32
		addrs := make([]PersistentAddress, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a, err := s.Put(OPR{LOID: loid.NewNoKey(256, uint64(i)), Impl: "x", State: []byte{byte(i)}})
				if err != nil {
					t.Error(err)
					return
				}
				addrs[i] = a
			}(i)
		}
		wg.Wait()
		seen := map[PersistentAddress]bool{}
		for i, a := range addrs {
			if seen[a] {
				t.Fatalf("address %q handed out twice", a)
			}
			seen[a] = true
			got, err := s.Get(a)
			if err != nil || len(got.State) != 1 || got.State[0] != byte(i) {
				t.Errorf("record %d = %+v, %v", i, got, err)
			}
		}
	})
	t.Run("UseAfterClose", func(t *testing.T) {
		s := mk(t)
		c, ok := s.(interface{ Close() error })
		if !ok {
			t.Skip("backend has no Close")
		}
		addr, err := s.Put(sampleOPR())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		// A closed store refuses writers with ErrClosed; it must not
		// panic or accept the write.
		if _, err := s.Put(sampleOPR()); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after Close = %v, want ErrClosed", err)
		}
		if err := s.Delete(addr); !errors.Is(err, ErrClosed) {
			t.Errorf("Delete after Close = %v, want ErrClosed", err)
		}
		if bp, ok := s.(BatchPutter); ok {
			if _, err := bp.PutBatch([]OPR{sampleOPR()}); !errors.Is(err, ErrClosed) {
				t.Errorf("PutBatch after Close = %v, want ErrClosed", err)
			}
		}
		if cp, ok := s.(interface{ CompactNow() (int, error) }); ok {
			if _, err := cp.CompactNow(); !errors.Is(err, ErrClosed) {
				t.Errorf("CompactNow after Close = %v, want ErrClosed", err)
			}
		}
		if err := c.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
	})
}

// TestBackendConformance runs the contract suite over every registered
// backend — a backend added to the registry is tested by existing. Each
// disk backend additionally runs in a synced variant and under a
// (fault-free) FaultVFS, proving the VFS plumbing itself doesn't change
// behaviour.
func TestBackendConformance(t *testing.T) {
	for _, name := range Backends() {
		name := name
		mk := func(sync bool, vfs VFS) func(t *testing.T) Store {
			return func(t *testing.T) Store {
				s, err := Open(name, BackendConfig{Dir: t.TempDir() + "/vault", Sync: sync, VFS: vfs})
				if err != nil {
					t.Fatal(err)
				}
				if c, ok := s.(interface{ Close() error }); ok {
					t.Cleanup(func() { c.Close() })
				}
				return s
			}
		}
		t.Run(name, func(t *testing.T) { storeConformance(t, mk(false, nil)) })
		if name == "mem" {
			continue
		}
		t.Run(name+"/sync", func(t *testing.T) { storeConformance(t, mk(true, nil)) })
		t.Run(name+"/faultvfs", func(t *testing.T) {
			storeConformance(t, mk(false, NewFaultVFS(FaultPlan{})))
		})
	}
}
