package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/persist"
	"repro/internal/wire"
)

// TestDiskBackedVault boots a system whose jurisdiction storage is a
// real directory: deactivation writes the object's OPR into the segment
// log under DataDir/j0, reactivation reads it back from disk and keeps
// it as the new incarnation's checkpoint, and the state round-trips.
func TestDiskBackedVault(t *testing.T) {
	dataDir := t.TempDir()
	sys := bootSys(t, Options{DataDir: dataDir})
	j := sys.Jurisdictions[0]
	if st := j.Store.Stats(); st.Backend != "segment" {
		t.Fatalf("DataDir store backend = %q, want segment", st.Backend)
	}
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	obj, _, err := cl.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := sys.NewClient(loid.NewNoKey(300, 1))
	for i := 0; i < 3; i++ {
		if res, err := user.Call(obj, "Inc"); err != nil || res.Code != wire.OK {
			t.Fatalf("Inc: %v %v", res, err)
		}
	}

	mag := magistrate.NewClient(sys.BootClient(), j.Magistrate)
	if err := mag.Deactivate(obj); err != nil {
		t.Fatal(err)
	}
	if n := j.StoredOPRs(); n != 1 {
		t.Fatalf("StoredOPRs after deactivate = %d, want 1", n)
	}
	if segs, _ := filepath.Glob(filepath.Join(dataDir, "j0", "seg-*.seg")); len(segs) == 0 {
		t.Fatal("no segment file under DataDir/j0")
	}

	// Reactivation reads the OPR from disk and continues the state.
	res, err := user.Call(obj, "Inc")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Inc after reactivation: %v %v", res, err)
	}
	raw, _ := res.Result(0)
	if v, _ := wire.AsUint64(raw); v != 4 {
		t.Errorf("counter = %d after disk round trip, want 4", v)
	}
	if n := j.StoredOPRs(); n != 1 {
		t.Errorf("StoredOPRs after reactivation = %d, want 1: the OPR kept as the incarnation's checkpoint", n)
	}
}

// TestCreateWritesNothing gates what creation costs the store: a new
// object starts from the state in hand, so N Creates and a Derive on a
// segment-store jurisdiction add no group commit and no record.
func TestCreateWritesNothing(t *testing.T) {
	sys := bootSys(t, Options{DataDir: t.TempDir()})
	st := sys.Jurisdictions[0].Store
	commits := func() uint64 { return sys.Reg.CounterValue("persist/group_commit") }
	c0, r0 := commits(), st.Stats().Records

	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if _, _, err := cl.Create(nil, loid.Nil, loid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	if d := commits() - c0; d != 0 {
		t.Errorf("%d Creates and one Derive made %d group commits, want 0", n, d)
	}
	if r := st.Stats().Records; r != r0 {
		t.Errorf("%d Creates and one Derive took the store from %d records to %d", n, r0, r)
	}
}

// TestAddJurisdictionUsesSystemStore: a jurisdiction added at run time
// gets its storage exactly as Boot's do — a segment log under
// DataDir/j<index> — not a memory store whose OPRs die with the process.
func TestAddJurisdictionUsesSystemStore(t *testing.T) {
	dataDir := t.TempDir()
	sys := bootSys(t, Options{DataDir: dataDir})
	added, err := sys.AddJurisdiction(1)
	if err != nil {
		t.Fatal(err)
	}
	if st := added.Store.Stats(); st.Backend != "segment" {
		t.Fatalf("added jurisdiction's store backend = %q, want segment", st.Backend)
	}
	index := len(sys.Jurisdictions) - 1
	if sys.Jurisdictions[index] != added {
		t.Fatalf("added jurisdiction is not last in the system's list")
	}
	if segs, _ := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("j%d", index), "seg-*.seg")); len(segs) == 0 {
		t.Fatalf("no segment file under DataDir/j%d", index)
	}
}

// TestAddJurisdictionAfterRestart: Boot does not restore a runtime-added
// jurisdiction, so the records its segment log kept are orphans. The
// next run's AddJurisdiction at the same index refuses to adopt them
// rather than counting them as its own forever.
func TestAddJurisdictionAfterRestart(t *testing.T) {
	dataDir := t.TempDir()
	sys := bootSys(t, Options{DataDir: dataDir})
	added, err := sys.AddJurisdiction(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := added.Store.Put(persist.OPR{LOID: loid.NewNoKey(300, 7), Impl: "counter"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	sys.Close()

	sys = bootSys(t, Options{DataDir: dataDir})
	if _, err := sys.AddJurisdiction(0); err == nil {
		t.Fatal("AddJurisdiction adopted the previous run's orphaned records")
	}
	if n := len(sys.Jurisdictions); n != 1 {
		t.Fatalf("%d jurisdictions after the refused add, want 1", n)
	}
	sys.Close()

	// With the orphaned directory removed, the index is free again.
	if err := os.RemoveAll(filepath.Join(dataDir, "j1")); err != nil {
		t.Fatal(err)
	}
	sys = bootSys(t, Options{DataDir: dataDir})
	if _, err := sys.AddJurisdiction(0); err != nil {
		t.Fatalf("AddJurisdiction over a removed index: %v", err)
	}
}

// TestBootRejectsFileLayout: a DataDir written by the retired
// one-file-per-OPR store fails Boot with persist.ErrFileLayout instead
// of booting with every restored record pointing at nothing.
func TestBootRejectsFileLayout(t *testing.T) {
	dataDir := t.TempDir()
	j0 := filepath.Join(dataDir, "j0")
	if err := os.MkdirAll(j0, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(j0, "opr-1-300-7.opr"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := Boot(Options{DataDir: dataDir})
	if err == nil {
		sys.Close()
		t.Fatal("Boot accepted a one-file-per-OPR directory")
	}
	if !errors.Is(err, persist.ErrFileLayout) {
		t.Fatalf("Boot error = %v, want persist.ErrFileLayout", err)
	}
}
