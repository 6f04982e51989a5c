package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/loid"
)

func newSegStore(t *testing.T, dir string, opts SegmentOptions) *SegmentStore {
	t.Helper()
	s, err := NewSegmentStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func segOPR(i int) OPR {
	return OPR{LOID: loid.NewNoKey(256, uint64(i+1)), Impl: "seg.worker", State: []byte(fmt.Sprintf("state-%04d", i))}
}

// TestSegmentStoreReopen: a cleanly closed store reopens with every
// record intact and never re-mints an old address.
func TestSegmentStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s := newSegStore(t, dir, SegmentOptions{})
	var addrs []PersistentAddress
	for i := 0; i < 20; i++ {
		a, err := s.Put(segOPR(i))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if err := s.Delete(addrs[3]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r := newSegStore(t, dir, SegmentOptions{})
	list, _ := r.List()
	if len(list) != 19 {
		t.Fatalf("reopened store has %d records, want 19", len(list))
	}
	for i, a := range addrs {
		if i == 3 {
			if _, err := r.Get(a); !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted record resurrected: %v", err)
			}
			continue
		}
		got, err := r.Get(a)
		if err != nil || string(got.State) != fmt.Sprintf("state-%04d", i) {
			t.Errorf("record %d after reopen = %+v, %v", i, got, err)
		}
	}
	// New addresses must not collide with any logged address.
	na, err := r.Put(segOPR(99))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if na == a {
			t.Fatalf("reopened store re-minted address %q", na)
		}
	}
}

// TestSegmentRejectsFileLayout: a directory of one-file-per-OPR records
// and no segments fails the open with ErrFileLayout, rather than
// opening empty beside records it cannot read. A stray .opr next to
// real segments does not.
func TestSegmentRejectsFileLayout(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "opr-1-256-1.opr")
	if err := os.WriteFile(legacy, []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := NewSegmentStore(dir, SegmentOptions{}); !errors.Is(err, ErrFileLayout) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("open over *.opr files: err = %v, want ErrFileLayout", err)
	}

	mixed := t.TempDir()
	s := newSegStore(t, mixed, SegmentOptions{})
	if _, err := s.Put(segOPR(0)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(mixed, "opr-1-256-1.opr"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newSegStore(t, mixed, SegmentOptions{})
	if n := r.Stats().Records; n != 1 {
		t.Fatalf("reopened segment store has %d records, want 1", n)
	}
}

// TestSegmentCrashTailTruncated: a torn record at the end of the log
// (crash mid-append) is truncated silently — it was never acknowledged —
// and the store stays appendable.
func TestSegmentCrashTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := newSegStore(t, dir, SegmentOptions{})
	a1, err := s.Put(segOPR(1))
	if err != nil {
		t.Fatal(err)
	}
	seg := segPath(dir, 1)
	s.Close()

	// Simulate a torn append: half a valid record at the tail.
	rec, _ := appendSegRecord(nil, segKindPut, "opr-9-1-1", segOPR(9).Marshal(nil), 0)
	f, _ := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write(rec[:len(rec)/2])
	f.Close()

	r := newSegStore(t, dir, SegmentOptions{})
	if got, err := r.Get(a1); err != nil || string(got.State) != "state-0001" {
		t.Fatalf("acknowledged record lost to crash tail: %+v, %v", got, err)
	}
	if q := r.Quarantined(); q != 0 {
		t.Errorf("crash tail counted as quarantine (%d) — it is unacknowledged garbage", q)
	}
	// The truncated segment must still accept appends and survive
	// another reopen.
	a2, err := r.Put(segOPR(2))
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := newSegStore(t, dir, SegmentOptions{})
	if _, err := r2.Get(a2); err != nil {
		t.Fatalf("post-truncation append lost: %v", err)
	}
}

// TestSegmentTornWriteCrash drives the store into an injected
// power-failure mid-append, then recovers with a clean VFS: every Put
// that returned nil must survive; the torn Put must fail.
func TestSegmentTornWriteCrash(t *testing.T) {
	dir := t.TempDir()
	vfs := NewFaultVFS(FaultPlan{CrashAtWrite: 9})
	s, err := NewSegmentStore(dir, SegmentOptions{VFS: vfs})
	if err != nil {
		t.Fatal(err)
	}
	var acked []PersistentAddress
	var ackedState []string
	for i := 0; i < 50; i++ {
		a, err := s.Put(segOPR(i))
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Put %d failed with non-injected error: %v", i, err)
			}
			break
		}
		acked = append(acked, a)
		ackedState = append(ackedState, fmt.Sprintf("state-%04d", i))
	}
	if len(acked) == 0 || len(acked) >= 50 {
		t.Fatalf("crash plan fired wrong: %d acked", len(acked))
	}
	// Writes after the crash stay dead.
	if _, err := s.Put(segOPR(77)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash Put = %v, want injected failure", err)
	}

	r := newSegStore(t, dir, SegmentOptions{})
	for i, a := range acked {
		got, err := r.Get(a)
		if err != nil || string(got.State) != ackedState[i] {
			t.Errorf("acknowledged record %d lost after torn-write crash: %+v, %v", i, got, err)
		}
	}
	list, _ := r.List()
	if len(list) != len(acked) {
		t.Errorf("recovered %d records, acknowledged %d", len(list), len(acked))
	}
}

// TestSegmentMidFileDamage: corruption in the middle of a sealed log
// must be quarantined (copied aside, counted) while every record after
// the damage is recovered by resync.
func TestSegmentMidFileDamage(t *testing.T) {
	dir := t.TempDir()
	s := newSegStore(t, dir, SegmentOptions{})
	var addrs []PersistentAddress
	for i := 0; i < 10; i++ {
		a, err := s.Put(segOPR(i))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	s.Close()

	// Rot the 4th record's payload bytes in place.
	seg := segPath(dir, 1)
	data, _ := os.ReadFile(seg)
	loc := bytes.Index(data, []byte("state-0003"))
	if loc < 0 {
		t.Fatal("victim record not found")
	}
	for i := 0; i < 6; i++ {
		data[loc+i] ^= 0xFF
	}
	os.WriteFile(seg, data, 0o644)

	r := newSegStore(t, dir, SegmentOptions{})
	if q := r.Quarantined(); q != 1 {
		t.Errorf("quarantined = %d, want 1", q)
	}
	qfiles, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*.damaged"))
	if len(qfiles) != 1 {
		t.Errorf("quarantine files = %v, want one", qfiles)
	}
	for i, a := range addrs {
		got, err := r.Get(a)
		if i == 3 {
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("damaged record should be gone, Get = %+v, %v", got, err)
			}
			continue
		}
		if err != nil || string(got.State) != fmt.Sprintf("state-%04d", i) {
			t.Errorf("record %d after mid-file damage = %+v, %v", i, got, err)
		}
	}
	// A damaged segment is sealed; new writes land in a fresh one and
	// survive another reopen.
	na, err := r.Put(segOPR(42))
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := newSegStore(t, dir, SegmentOptions{})
	if _, err := r2.Get(na); err != nil {
		t.Fatalf("write after damage recovery lost: %v", err)
	}
}

// TestSegmentFsyncErrorSticky: after an fsync failure the store refuses
// all writes (the page cache can't be trusted) but keeps serving reads.
func TestSegmentFsyncErrorSticky(t *testing.T) {
	dir := t.TempDir()
	// Sync 1+2 = header+dir of segment 1; sync 3 = first group commit.
	vfs := NewFaultVFS(FaultPlan{FailSyncAt: 4})
	s, err := NewSegmentStore(dir, SegmentOptions{VFS: vfs})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Put(segOPR(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(segOPR(2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put over failed fsync = %v, want injected error", err)
	}
	if _, err := s.Put(segOPR(3)); err == nil {
		t.Fatal("store accepted a write after an fsync failure")
	}
	if err := s.Delete(a1); err == nil {
		t.Fatal("store accepted a delete after an fsync failure")
	}
	if got, err := s.Get(a1); err != nil || string(got.State) != "state-0001" {
		t.Errorf("reads must survive a write failure: %+v, %v", got, err)
	}
	if _, err := s.List(); err != nil {
		t.Errorf("List after write failure: %v", err)
	}
}

// TestSegmentCompaction: deleting most records makes the sealed segment
// a compaction victim; compaction preserves the survivors (same
// addresses), reclaims the file, and the result survives reopen.
func TestSegmentCompaction(t *testing.T) {
	dir := t.TempDir()
	s := newSegStore(t, dir, SegmentOptions{TargetSegmentBytes: 1024})
	var addrs []PersistentAddress
	for i := 0; i < 40; i++ {
		a, err := s.Put(segOPR(i))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i := 0; i < 40; i++ {
		if i%4 != 0 {
			if err := s.Delete(addrs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Stats()
	if before.Segments < 2 {
		t.Fatalf("test needs rolled segments, have %d", before.Segments)
	}
	n, err := s.CompactNow()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("compaction found no victims despite 75% garbage")
	}
	after := s.Stats()
	if after.GCSegments != n || after.GCRecords == 0 {
		t.Errorf("gc stats = %+v after reclaiming %d", after, n)
	}
	check := func(st Store) {
		for i := 0; i < 40; i++ {
			got, err := st.Get(addrs[i])
			if i%4 == 0 {
				if err != nil || string(got.State) != fmt.Sprintf("state-%04d", i) {
					t.Errorf("survivor %d = %+v, %v", i, got, err)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Errorf("deleted %d resurrected: %+v, %v", i, got, err)
			}
		}
	}
	check(s)
	s.Close()
	check(newSegStore(t, dir, SegmentOptions{}))
}

// TestSegmentMidCompactionCrash: a crash while compaction is copying
// live records leaves either the old segment or old+duplicate copies —
// recovery must yield exactly one live record per address with the
// right bytes.
func TestSegmentMidCompactionCrash(t *testing.T) {
	dir := t.TempDir()
	s := newSegStore(t, dir, SegmentOptions{TargetSegmentBytes: 1024})
	var addrs []PersistentAddress
	for i := 0; i < 40; i++ {
		a, err := s.Put(segOPR(i))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	for i := 1; i < 40; i += 2 {
		if err := s.Delete(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Reopen under a fault VFS armed to crash a few writes into the
	// compaction copy phase.
	vfs := NewFaultVFS(FaultPlan{CrashAtWrite: 4})
	cs, err := NewSegmentStore(dir, SegmentOptions{VFS: vfs, TargetSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.CompactNow(); err == nil {
		t.Fatal("compaction survived a crash plan that should have killed it")
	}
	if !vfs.Crashed() {
		t.Fatal("crash point never fired — plan mis-tuned")
	}

	r := newSegStore(t, dir, SegmentOptions{})
	list, _ := r.List()
	if len(list) != 20 {
		t.Fatalf("after mid-compaction crash: %d live records, want 20", len(list))
	}
	for i := 0; i < 40; i += 2 {
		got, err := r.Get(addrs[i])
		if err != nil || string(got.State) != fmt.Sprintf("state-%04d", i) {
			t.Errorf("record %d after mid-compaction crash = %+v, %v", i, got, err)
		}
	}
	for i := 1; i < 40; i += 2 {
		if _, err := r.Get(addrs[i]); !errors.Is(err, ErrNotFound) {
			t.Errorf("deleted record %d resurrected by mid-compaction crash: %v", i, err)
		}
	}
}

// TestSegmentShortRead: a transient short read surfaces as a plain
// error (retryable), not as corruption, and does not quarantine.
func TestSegmentShortRead(t *testing.T) {
	dir := t.TempDir()
	vfs := NewFaultVFS(FaultPlan{ShortReadAt: 3})
	s, err := NewSegmentStore(dir, SegmentOptions{VFS: vfs})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Put(segOPR(1))
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for i := 0; i < 5; i++ {
		if _, err := s.Get(a); err != nil {
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("short read misdiagnosed as corruption: %v", err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("short-read fault never fired")
	}
	if got, err := s.Get(a); err != nil || string(got.State) != "state-0001" {
		t.Errorf("Get after transient short read = %+v, %v", got, err)
	}
}

// TestSegmentGroupCommitBatches: concurrent writers must share fsyncs —
// the whole point of the log. The first commit's fsync is held until
// every writer has appended, so sync absorption is deterministic: the
// leader commits its own record, and the next leader's one fsync covers
// all the others.
func TestSegmentGroupCommitBatches(t *testing.T) {
	const writers = 16
	vfs := &holdFirstSyncVFS{VFS: OS{}, want: writers, appended: make(chan struct{})}
	s := newSegStore(t, t.TempDir(), SegmentOptions{VFS: vfs})
	vfs.armed.Store(true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := s.Put(segOPR(w)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Records != writers {
		t.Fatalf("records = %d, want %d", st.Records, writers)
	}
	if st.GroupCommit != 2 {
		t.Errorf("%d records took %d group commits, want 2 (the held one, then one for the rest)", writers, st.GroupCommit)
	}
}

// holdFirstSyncVFS parks the first fsync issued after it is armed until
// want records have been appended.
type holdFirstSyncVFS struct {
	VFS
	want     int64
	armed    atomic.Bool
	held     atomic.Bool
	writes   atomic.Int64
	appended chan struct{}
}

func (v *holdFirstSyncVFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := v.VFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &holdSyncFile{File: f, v: v}, nil
}

type holdSyncFile struct {
	File
	v *holdFirstSyncVFS
}

func (f *holdSyncFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.v.armed.Load() && f.v.writes.Add(1) == f.v.want {
		close(f.v.appended)
	}
	return n, err
}

func (f *holdSyncFile) Sync() error {
	if f.v.armed.Load() && f.v.held.CompareAndSwap(false, true) {
		<-f.v.appended
	}
	return f.File.Sync()
}

// TestSegmentPutBatch: one batch, one epoch, addresses in order.
func TestSegmentPutBatch(t *testing.T) {
	dir := t.TempDir()
	s := newSegStore(t, dir, SegmentOptions{})
	oprs := make([]OPR, 10)
	for i := range oprs {
		oprs[i] = segOPR(i)
	}
	addrs, err := s.PutBatch(oprs)
	if err != nil || len(addrs) != 10 {
		t.Fatalf("PutBatch = %v, %v", addrs, err)
	}
	if got := s.Stats().GroupCommit; got != 1 {
		t.Errorf("batch took %d group commits, want 1", got)
	}
	for i, a := range addrs {
		got, err := s.Get(a)
		if err != nil || string(got.State) != fmt.Sprintf("state-%04d", i) {
			t.Errorf("batch record %d = %+v, %v", i, got, err)
		}
	}
}

// FuzzSegmentRecord mirrors FuzzParseFrame for the segment record
// decoder: arbitrary corruption or truncation must yield an error or a
// valid record — never a panic, hang, or silent bad read (a record that
// decodes must re-encode to the same bytes).
func FuzzSegmentRecord(f *testing.F) {
	rec, chain := appendSegRecord(nil, segKindPut, "opr-1-2-3", segOPR(1).Marshal(nil), 0)
	rec2, _ := appendSegRecord(rec, segKindDelete, "opr-1-2-3", nil, chain)
	f.Add(rec)
	f.Add(rec2)
	f.Add(rec[:len(rec)/2])
	f.Add(EncodeOPRBatch([]OPR{segOPR(2)}))
	f.Add([]byte(segRecMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := decodeSegRecord(b, 0)
		if err == nil {
			if n <= 0 || n > len(b) {
				t.Fatalf("decoded %d bytes from %d-byte input", n, len(b))
			}
			// Round-trip: a record the decoder accepts must re-encode
			// to the identical bytes (minus the chain word, which
			// depends on the unknown predecessor).
			re, _ := appendSegRecord(nil, rec.kind, rec.addr, rec.payload, 0)
			if !bytes.Equal(re[:15], b[:15]) || !bytes.Equal(re[segRecHdrLen:n], b[segRecHdrLen:n]) {
				t.Fatalf("accepted record does not round-trip")
			}
		}
		// The checkpoint batch decoder shares the codec; it must be
		// equally panic-free.
		if oprs, berr := DecodeOPRBatch(b); berr != nil && oprs != nil {
			t.Fatalf("failed batch decode returned %d OPRs", len(oprs))
		}
	})
}

// TestSegmentCloseDuringDeleteTail: an adoption commits, then deletes
// the shipped OPRs one by one; a system shutting down closes
// the store under that tail. Every delete either commits or is refused
// with ErrClosed — none may reach the closed segment.
func TestSegmentCloseDuringDeleteTail(t *testing.T) {
	for round := 0; round < 20; round++ {
		st, err := NewSegmentStore(t.TempDir(), SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		oprs := make([]OPR, 64)
		for i := range oprs {
			oprs[i] = OPR{LOID: loid.NewNoKey(256, uint64(i)), Impl: "x", State: []byte{byte(i)}}
		}
		addrs, err := st.PutBatch(oprs)
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i, a := range addrs {
				if i == 2 {
					close(started)
				}
				if err := st.Delete(a); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Delete %s = %v, want nil or ErrClosed", a, err)
				}
			}
		}()
		<-started
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
	}
}
