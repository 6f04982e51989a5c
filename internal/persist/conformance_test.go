package persist

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/loid"
)

// storeConformance is the shared Store contract suite: both backends
// must pass it unchanged. open opens (or reopens) a store rooted at
// dir; mk builds a fresh empty one per subtest.
func storeConformance(t *testing.T, open func(t *testing.T, dir string) Store) {
	mk := func(t *testing.T) Store { return open(t, t.TempDir()+"/vault") }
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
	t.Run("DeleteSet", func(t *testing.T) {
		// One Delete of several addresses removes each that exists, on
		// disk too, and reports a missing or repeated one as
		// ErrNotFound.
		dir := t.TempDir()
		s := open(t, dir)
		oprs := make([]OPR, 4)
		for i := range oprs {
			oprs[i] = OPR{LOID: loid.NewNoKey(256, uint64(i+1)), Impl: "d"}
		}
		addrs, err := s.PutBatch(oprs)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(addrs[0], "no-such-address", addrs[2], addrs[2]); !errors.Is(err, ErrNotFound) {
			t.Errorf("Delete with a missing and a repeated address = %v, want ErrNotFound", err)
		}
		if err := s.Delete(); err != nil {
			t.Errorf("Delete of no address = %v", err)
		}
		check := func(s Store, when string) {
			for i, a := range addrs {
				_, err := s.Get(a)
				if deleted := i%2 == 0; deleted != errors.Is(err, ErrNotFound) {
					t.Errorf("%s: Get of record %d = %v, deleted %v", when, i, err, deleted)
				}
			}
			if n := s.Stats().Records; n != 2 {
				t.Errorf("%s: %d records, want 2", when, n)
			}
		}
		check(s, "after Delete")
		if s.Stats().Backend == "mem" {
			return
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		check(open(t, dir), "after reopen")
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
		addr, err := s.Put(sampleOPR())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
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
		if _, err := s.PutBatch([]OPR{sampleOPR()}); !errors.Is(err, ErrClosed) {
			t.Errorf("PutBatch after Close = %v, want ErrClosed", err)
		}
		if cp, ok := s.(interface{ CompactNow() (int, error) }); ok {
			if _, err := cp.CompactNow(); !errors.Is(err, ErrClosed) {
				t.Errorf("CompactNow after Close = %v, want ErrClosed", err)
			}
		}
		// Committed records stay readable.
		if got, err := s.Get(addr); err != nil || got.Impl != sampleOPR().Impl {
			t.Errorf("Get after Close = %+v, %v", got, err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("second Close = %v", err)
		}
	})
	t.Run("PutBatchInOrder", func(t *testing.T) {
		s := mk(t)
		oprs := make([]OPR, 5)
		for i := range oprs {
			oprs[i] = OPR{LOID: loid.NewNoKey(256, uint64(i+1)), Impl: "b", State: []byte{byte(i)}}
		}
		addrs, err := s.PutBatch(oprs)
		if err != nil || len(addrs) != len(oprs) {
			t.Fatalf("PutBatch = %v, %v", addrs, err)
		}
		for i, a := range addrs {
			got, err := s.Get(a)
			if err != nil || got.LOID != oprs[i].LOID || got.State[0] != byte(i) {
				t.Errorf("batch entry %d at %s = %+v, %v", i, a, got, err)
			}
		}
		if st := s.Stats(); st.Records != len(oprs) {
			t.Errorf("Stats().Records = %d, want %d", st.Records, len(oprs))
		}
	})
	// reopened writes one record to a fresh directory, closes the store
	// and opens it again; it skips on a backend that keeps nothing.
	reopened := func(t *testing.T) (Store, PersistentAddress) {
		dir := t.TempDir()
		s := open(t, dir)
		if s.Stats().Backend == "mem" {
			t.Skip("mem keeps nothing across Close")
		}
		a1, err := s.Put(sampleOPR())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return open(t, dir), a1
	}
	t.Run("ReopenKeepsRecords", func(t *testing.T) {
		// A disk backend's acknowledged records survive Close and reopen.
		r, a1 := reopened(t)
		got, err := r.Get(a1)
		if err != nil || got.Impl != sampleOPR().Impl || string(got.State) != string(sampleOPR().State) {
			t.Fatalf("reopened Get = %+v, %v", got, err)
		}
		if list, _ := r.List(); len(list) != 1 || list[0] != a1 {
			t.Errorf("reopened List = %v", list)
		}
	})
	t.Run("ReopenNoAddressReuse", func(t *testing.T) {
		// The reopened store never reissues an address a record still
		// holds (that would overwrite it).
		r, a1 := reopened(t)
		a2, err := r.Put(sampleOPR())
		if err != nil {
			t.Fatal(err)
		}
		if a2 == a1 {
			t.Fatalf("reopened store reissued address %q", a1)
		}
		if _, err := r.Get(a1); err != nil {
			t.Errorf("original record gone after reopen+Put: %v", err)
		}
	})
	t.Run("CorruptRecord", func(t *testing.T) {
		// Bit rot inside a record's bytes on disk is reported as
		// ErrCorrupt by Get, the read every activation and adoption
		// makes, so the Magistrate never activates a silently wrong OPR.
		dir := t.TempDir()
		s := open(t, dir)
		marker := []byte("precious checkpoint bytes")
		addr, err := s.Put(OPR{LOID: loid.NewNoKey(256, 7), Impl: "counter", State: marker})
		if err != nil {
			t.Fatal(err)
		}
		if flipOnDisk(t, dir, marker) == 0 {
			t.Skip("backend keeps nothing on disk")
		}
		if got, err := s.Get(addr); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Get of a corrupt record = %+v, %v; want ErrCorrupt", got, err)
		}
	})
}

// flipOnDisk flips one bit in the middle of marker in every file under
// dir that holds it, and returns how many files it changed.
func flipOnDisk(t *testing.T, dir string, marker []byte) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		at := bytes.Index(data, marker)
		if at < 0 {
			return nil
		}
		data[at+len(marker)/2] ^= 0x10
		n++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBackendConformance runs the contract suite over every backend
// Open accepts. The segment backend also runs under a (fault-free)
// FaultVFS, proving the VFS plumbing itself doesn't change behaviour.
func TestBackendConformance(t *testing.T) {
	for _, name := range Backends() {
		name := name
		open := func(vfs VFS) func(t *testing.T, dir string) Store {
			return func(t *testing.T, dir string) Store {
				s, err := Open(name, dir, SegmentOptions{VFS: vfs})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				return s
			}
		}
		t.Run(name, func(t *testing.T) { storeConformance(t, open(nil)) })
		if name == "mem" {
			continue
		}
		t.Run(name+"/faultvfs", func(t *testing.T) {
			storeConformance(t, open(NewFaultVFS(FaultPlan{})))
		})
	}
}
