package experiments

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/sim"
)

// RunE21 exercises the crash-consistent segment-log jurisdiction store
// and snapshot-shipped bulk adoption. The durability contract under
// test: a Put/PutBatch that returned nil was group-committed and
// survives ANY later storage fault (torn write, fsync error, crash
// mid-compaction, faulted snapshot export) — recovery may quarantine
// damage but never silently loses an acknowledged record. On top of
// that store, a host failure is healed by shipping the dead host's
// whole checkpointed resident set to one survivor in a single
// AdoptObjects call; it is timed against the per-OPR reactivation
// baseline and must keep exactly one incarnation per object, including
// when the adoption target itself dies mid-ship.
func RunE21(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "E21",
		Title: "Crash-consistent segment store and bulk adoption (§3.1.1, §4.3)",
		Claim: "group-committed checkpoints survive torn writes, fsync errors, and crashes mid-compaction or mid-ship with zero acknowledged-record loss; snapshot-shipped bulk adoption recovers a crashed host's residents faster than per-OPR reactivation with exactly one incarnation per object",
		Columns: []string{"scenario", "objects", "acked", "lost", "quarantined", "regressions", "multi-incarnation", "recovery"},
	}

	for _, f := range []struct {
		name string
		run  func(Scale) (*e21FaultResult, error)
	}{
		{"torn write (power fail mid-append)", e21TornWrite},
		{"fsync error (sticky write failure)", e21FsyncError},
		{"crash mid-compaction", e21MidCompaction},
		{"faulted snapshot export (mid-ship)", e21ExportFault},
	} {
		r, err := f.run(scale)
		if err != nil {
			return nil, fmt.Errorf("E21 %s: %w", f.name, err)
		}
		t.Rows = append(t.Rows, []string{
			f.name, "-", fmt.Sprintf("%d", r.acked), fmt.Sprintf("%d", r.lost),
			fmt.Sprintf("%d", r.quarantined), "-", "-", "-",
		})
		if r.lost > 0 {
			t.Finding = fmt.Sprintf("NOT holding: %s lost %d acknowledged records", f.name, r.lost)
			return t, nil
		}
	}

	bulk, err := e21Recovery(scale, e21Bulk)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, bulk.row("bulk adoption (segment store)"))
	perOPR, err := e21Recovery(scale, e21PerOPR)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, perOPR.row("per-OPR reactivation (baseline)"))
	midShip, err := e21Recovery(scale, e21MidShip)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, midShip.row("target dies mid-ship (fallback)"))

	holds := bulk.regressions == 0 && perOPR.regressions == 0 && midShip.regressions == 0 &&
		bulk.multi == 0 && perOPR.multi == 0 && midShip.multi == 0 &&
		bulk.usedBulk && !perOPR.usedBulk && midShip.fellBack
	// The settle times are reported, not asserted: which path is quicker
	// at this scale depends on the machine, and the speed-up is measured
	// where its spread is known (ckpt_failover recover_p50_ms).
	if holds {
		t.Finding = fmt.Sprintf("holds: zero acknowledged-record loss across the storage fault matrix; bulk adoption settled %d objects in %s vs %s per-OPR (%.1fx), mid-ship target death fell back with no state loss, and no scenario ever showed a second incarnation",
			bulk.objects, bulk.settle.Round(10*time.Microsecond),
			perOPR.settle.Round(10*time.Microsecond),
			float64(perOPR.settle)/float64(bulk.settle))
	} else {
		t.Finding = fmt.Sprintf("NOT holding: regressions bulk=%d perOPR=%d midship=%d, multi-incarnation %d/%d/%d, bulk settle %s vs per-OPR %s (paths bulk=%v fallback=%v)",
			bulk.regressions, perOPR.regressions, midShip.regressions,
			bulk.multi, perOPR.multi, midShip.multi, bulk.settle, perOPR.settle,
			bulk.usedBulk, midShip.fellBack)
	}
	return t, nil
}

// e21FaultResult is one storage-fault scenario's outcome: of the
// records the store acknowledged before the fault, how many were lost
// (must be zero) and how many corrupt records recovery quarantined.
type e21FaultResult struct {
	acked       int
	lost        int
	quarantined int
}

// e21Verify reopens dir with a clean VFS and checks that every
// acknowledged record is intact.
func e21Verify(dir string, acked map[persist.PersistentAddress]persist.OPR) (*e21FaultResult, error) {
	st, err := persist.NewSegmentStore(dir, persist.SegmentOptions{})
	if err != nil {
		return nil, fmt.Errorf("recovery open: %w", err)
	}
	defer st.Close()
	r := &e21FaultResult{acked: len(acked), quarantined: st.Quarantined()}
	for a, want := range acked {
		got, err := st.Get(a)
		if err != nil || string(got.State) != string(want.State) || got.Impl != want.Impl {
			r.lost++
		}
	}
	return r, nil
}

func e21OPR(i int) persist.OPR {
	return persist.OPR{
		LOID:  loid.NewNoKey(900, uint64(i+1)),
		Impl:  "e21-worker",
		State: []byte(fmt.Sprintf("committed-state-%05d", i)),
	}
}

// e21TornWrite: acknowledged puts, then a power failure that tears a
// later append in half. Recovery truncates the torn tail; everything
// acked before the crash must read back intact.
func e21TornWrite(Scale) (*e21FaultResult, error) {
	dir, err := os.MkdirTemp("", "e21-torn-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fv := persist.NewFaultVFS(persist.FaultPlan{CrashAtWrite: 14})
	st, err := persist.NewSegmentStore(dir, persist.SegmentOptions{VFS: fv})
	if err != nil {
		return nil, err
	}
	acked := make(map[persist.PersistentAddress]persist.OPR)
	for i := 0; i < 64; i++ {
		o := e21OPR(i)
		a, err := st.Put(o)
		if err != nil {
			break // the crash point fired; nothing after is acked
		}
		acked[a] = o
	}
	st.Close()
	if !fv.Crashed() {
		return nil, errors.New("crash point never fired")
	}
	return e21Verify(dir, acked)
}

// e21FsyncError: the Nth fsync fails without crashing. The store must
// refuse the batch (unacknowledged) and fail all later writes, while
// everything acked before stays durable and readable.
func e21FsyncError(Scale) (*e21FaultResult, error) {
	dir, err := os.MkdirTemp("", "e21-fsync-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Syncs 1–2 are the segment header + directory; fail a later commit.
	fv := persist.NewFaultVFS(persist.FaultPlan{FailSyncAt: 6})
	st, err := persist.NewSegmentStore(dir, persist.SegmentOptions{VFS: fv})
	if err != nil {
		return nil, err
	}
	acked := make(map[persist.PersistentAddress]persist.OPR)
	sawErr := false
	for i := 0; i < 64; i++ {
		o := e21OPR(i)
		a, err := st.Put(o)
		if err != nil {
			sawErr = true
			break
		}
		acked[a] = o
	}
	st.Close()
	if !sawErr {
		return nil, errors.New("fsync fault never surfaced")
	}
	return e21Verify(dir, acked)
}

// e21MidCompaction: a store with committed puts and deletes crashes in
// the middle of rewriting a segment. The old segment (or a harmless
// duplicate) must survive; recovery keeps every live record and every
// delete deleted.
func e21MidCompaction(Scale) (*e21FaultResult, error) {
	dir, err := os.MkdirTemp("", "e21-compact-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := persist.NewSegmentStore(dir, persist.SegmentOptions{TargetSegmentBytes: 1024})
	if err != nil {
		return nil, err
	}
	acked := make(map[persist.PersistentAddress]persist.OPR)
	var addrs []persist.PersistentAddress
	for i := 0; i < 48; i++ {
		o := e21OPR(i)
		a, err := st.Put(o)
		if err != nil {
			st.Close()
			return nil, err
		}
		addrs = append(addrs, a)
		acked[a] = o
	}
	for i, a := range addrs {
		if i%3 != 0 {
			if err := st.Delete(a); err != nil {
				st.Close()
				return nil, err
			}
			delete(acked, a)
		}
	}
	st.Close()

	// Reopen under a VFS that powers off a few writes into compaction.
	fv := persist.NewFaultVFS(persist.FaultPlan{CrashAtWrite: 3})
	st2, err := persist.NewSegmentStore(dir, persist.SegmentOptions{VFS: fv, TargetSegmentBytes: 1024})
	if err != nil {
		return nil, err
	}
	if _, err := st2.CompactNow(); err == nil {
		st2.Close()
		return nil, errors.New("compaction survived the crash point")
	}
	st2.Close()
	r, err := e21Verify(dir, acked)
	if err != nil {
		return nil, err
	}
	// Deletes must stay deleted (a resurrected tombstone is loss too).
	st3, err := persist.NewSegmentStore(dir, persist.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	defer st3.Close()
	for i, a := range addrs {
		if i%3 != 0 {
			if _, err := st3.Get(a); !errors.Is(err, persist.ErrNotFound) {
				r.lost++
			}
		}
	}
	return r, nil
}

// e21ExportFault: a transient read fault mid-snapshot-export. The
// export must fail whole (never ship a partial resident set) and a
// retry on the healed device must round-trip every record.
func e21ExportFault(Scale) (*e21FaultResult, error) {
	dir, err := os.MkdirTemp("", "e21-export-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := persist.NewSegmentStore(dir, persist.SegmentOptions{})
	if err != nil {
		return nil, err
	}
	acked := make(map[persist.PersistentAddress]persist.OPR)
	for i := 0; i < 16; i++ {
		o := e21OPR(i)
		a, err := st.Put(o)
		if err != nil {
			st.Close()
			return nil, err
		}
		acked[a] = o
	}
	st.Close()

	fv := persist.NewFaultVFS(persist.FaultPlan{ShortReadAt: 3})
	st2, err := persist.NewSegmentStore(dir, persist.SegmentOptions{VFS: fv})
	if err != nil {
		return nil, err
	}
	defer st2.Close()
	addrs, err := st2.List()
	if err != nil {
		return nil, err
	}
	if _, err := st2.ExportSnapshot(addrs); err == nil {
		return nil, errors.New("faulted export did not fail")
	}
	blob, err := st2.ExportSnapshot(addrs) // transient fault has passed
	if err != nil {
		return nil, fmt.Errorf("retry export: %w", err)
	}
	_, oprs, err := persist.DecodeSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	r := &e21FaultResult{acked: len(acked), quarantined: st2.Quarantined()}
	got := make(map[string]bool, len(oprs))
	for _, o := range oprs {
		got[string(o.State)] = true
	}
	for _, want := range acked {
		if !got[string(want.State)] {
			r.lost++
		}
	}
	return r, nil
}

// e21Mode selects the recovery scenario.
type e21Mode int

const (
	e21Bulk    e21Mode = iota // bulk adoption on (the default path)
	e21PerOPR                 // SetBulkAdoption(false) ablation baseline
	e21MidShip                // adoption target crashes mid-ship
)

// e21RecResult is one host-failure recovery run over the segment
// backend.
type e21RecResult struct {
	objects     int
	lost        int // residents of the crashed host
	regressions int // objects that lost checkpointed state
	multi       int // objects ever seen with >1 incarnation (must be 0)
	settle      time.Duration
	usedBulk    bool
	fellBack    bool
}

func (r *e21RecResult) row(name string) []string {
	return []string{
		name, fmt.Sprintf("%d", r.objects), fmt.Sprintf("%d", r.lost), "0", "-",
		fmt.Sprintf("%d", r.regressions), fmt.Sprintf("%d", r.multi),
		r.settle.Round(10 * time.Microsecond).String(),
	}
}

// e21Recovery checkpoints a 3-host segment-backed deployment, crashes
// host 1, and measures how long the magistrate takes to have every
// lost resident active again (placement-table polling, not client
// retries, so the number is the recovery path's own latency). Then
// every object is probed for state loss and the whole deployment is
// swept for double incarnations.
func e21Recovery(scale Scale, mode e21Mode) (*e21RecResult, error) {
	objects := 24
	if scale == Full {
		objects = 64
	}
	s, err := sim.Build(sim.Config{
		HostsPerJurisdiction: 3,
		ObjectsPerClass:      objects,
		CallTimeout:          200 * time.Millisecond,
		CheckpointEvery:      time.Hour, // forced explicitly below
		StoreBackend:         "segment",
		Seed:                 21,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	mag := s.Sys.Jurisdictions[0].MagistrateImpl()
	if mode == e21PerOPR {
		mag.SetBulkAdoption(false)
	}
	if mode == e21MidShip {
		// The chaos seam fires after the snapshot is exported, right
		// before it ships: power-fail the chosen target and tell the
		// magistrate, exactly as a detector would. The ship then fails
		// against a dead endpoint and recovery must fall back.
		fired := false
		mag.SetAdoptHook(func(target loid.LOID) {
			if fired {
				return
			}
			fired = true
			for h, hl := range s.Sys.Jurisdictions[0].Hosts {
				if hl.SameObject(target) {
					_, _ = s.CrashHostAndDetect(0, h)
					return
				}
			}
		})
	}

	pre, err := e18Warm(s, 3)
	if err != nil {
		return nil, err
	}
	if n, err := s.CheckpointNow(); err != nil || n == 0 {
		return nil, fmt.Errorf("E21 checkpoint: %d, %v", n, err)
	}
	cli := s.Clients[0]
	cli.Retry = rt.RetryPolicy{MaxAttempts: 20, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}

	t0 := time.Now()
	allLost, err := s.CrashHostAndDetect(0, 1)
	if err != nil {
		return nil, err
	}
	if len(allLost) == 0 {
		return nil, errors.New("E21: crashed host ran no workers")
	}
	res := &e21RecResult{objects: len(s.Flat), lost: len(allLost)}

	// Settle: every lost object active again per the placement table.
	lostIDs := make(map[loid.LOID]bool, len(allLost))
	for _, l := range allLost {
		lostIDs[l.ID()] = true
	}
	deadline := t0.Add(10 * time.Second)
	for {
		active := 0
		for _, p := range mag.Placements() {
			if lostIDs[p.Object.ID()] && p.Active {
				active++
			}
		}
		if active == len(lostIDs) {
			res.settle = time.Since(t0)
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("E21: only %d/%d lost objects settled", active, len(lostIDs))
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Exactly-one-incarnation sweep, then the state probe (the probe's
	// own calls keep objects active, so sweep first).
	for _, l := range s.Flat {
		if s.Sys.CountIncarnations(l) > 1 {
			res.multi++
		}
	}
	probe := e18Probe(cli, s.Flat, pre, time.Now(), 10*time.Second)
	res.regressions = probe.regressions
	res.usedBulk = s.Reg.Counter("mag/bulk_adoptions").Value() > 0
	res.fellBack = s.Reg.Counter("mag/bulk_adopt_failed").Value() > 0 &&
		s.Reg.Counter("mag/reactivations").Value() > 0
	// Bulk adoption, its fallback and per-OPR reactivation all place
	// records; the kept resident counts must equal a recount.
	if err := mag.CheckResidentCounts(); err != nil {
		return nil, fmt.Errorf("E21 recovery: %w", err)
	}
	return res, nil
}
