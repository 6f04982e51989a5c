package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// SegmentStore is the log-structured Store: every Put and Delete is one
// CRC-chained record appended to the active segment file, made durable
// by a group commit (one fsync covers every record appended while the
// previous fsync was in flight), and reclaimed by background compaction
// that rewrites a mostly-dead segment's live records into the active
// segment and deletes the file. This is the backend ROADMAP calls for
// at millions-of-objects checkpoint churn: FileStore pays an fsync per
// OPR; SegmentStore pays one per batch.
//
// Crash consistency contract (exercised by the E21 fault matrix):
//   - A Put/PutBatch/Delete that returned nil was group-committed; it
//     survives any later crash.
//   - A torn tail (crash mid-append) is truncated at recovery — those
//     records were never acknowledged.
//   - Damage in the middle of a segment (bit rot, lost writes) is
//     quarantined: the damaged byte range is copied aside and counted,
//     and recovery resyncs onto the next self-valid record.
//   - An fsync failure is sticky: the store fails all subsequent writes
//     (the page cache can no longer be trusted to reach disk — the
//     "fsyncgate" rule) while reads keep working.
type SegmentStore struct {
	dir  string
	vfs  VFS
	opts SegmentOptions

	mu   sync.Mutex
	cond *sync.Cond

	index    map[PersistentAddress]segLoc
	segments map[uint64]*segmentInfo
	nextRec  uint64 // address sequence
	now      func() time.Time

	active     File
	activeSeg  uint64
	activeSize int64
	chain      uint32

	// Group-commit state. appended/committed are epoch counters: each
	// record (or batch) gets the epoch assigned at append time; a writer
	// returns once committed >= its epoch.
	appended     uint64
	committed    uint64
	syncing      bool
	pendingRecs  int
	pendingBytes int
	werr         error // sticky write failure

	quarantined  int
	gcSegments   int
	gcRecords    int
	gcBytes      int64
	groupCommits uint64

	compactMu sync.Mutex
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// segLoc places a live record inside a segment file.
type segLoc struct {
	seg uint64
	off int64
	n   int
}

// segmentInfo tracks one segment file's bookkeeping.
type segmentInfo struct {
	records int   // total records written to the segment
	bytes   int64 // file size
	sealed  bool
	// tombs maps a delete record in this segment to the segment number
	// that held the put it masks. The tombstone may be dropped at
	// compaction only when every segment numbered <= that value is gone
	// (otherwise recovery could resurrect the put).
	tombs map[PersistentAddress]uint64
}

// SegmentOptions configures a SegmentStore. Zero values get defaults.
type SegmentOptions struct {
	// VFS routes all file I/O; defaults to OS. Tests substitute a
	// FaultVFS here.
	VFS VFS
	// GroupDelay optionally makes a commit leader wait this long for
	// stragglers before fsyncing (when pending bytes are still below
	// GroupBytes). 0 = sync immediately; batching then comes from sync
	// absorption — writers that arrive during an in-flight fsync share
	// the next one.
	GroupDelay time.Duration
	// GroupBytes short-circuits GroupDelay once this many bytes are
	// pending. Default 256 KiB.
	GroupBytes int
	// TargetSegmentBytes rolls the active segment once it exceeds this
	// size. Default 8 MiB.
	TargetSegmentBytes int64
	// CompactRatio is the dead-record fraction above which a sealed
	// segment is compacted. Default 0.5.
	CompactRatio float64
	// CompactEvery runs background compaction at this period; 0
	// disables the loop (CompactNow still works).
	CompactEvery time.Duration
	// NoSync skips fsync entirely (benchmark baseline only — the
	// durability contract is void).
	NoSync bool
	// Metrics, when set, receives persist/group_commit, persist/gc/*,
	// persist/segments and persist/quarantined_records counters.
	Metrics *metrics.Registry
}

func (o *SegmentOptions) defaults() {
	if o.VFS == nil {
		o.VFS = OS{}
	}
	if o.GroupBytes <= 0 {
		o.GroupBytes = 256 << 10
	}
	if o.TargetSegmentBytes <= 0 {
		o.TargetSegmentBytes = 8 << 20
	}
	if o.CompactRatio <= 0 {
		o.CompactRatio = 0.5
	}
}

// NewSegmentStore opens (creating if needed) a segment store rooted at
// dir and runs crash recovery over whatever it finds there.
func NewSegmentStore(dir string, opts SegmentOptions) (*SegmentStore, error) {
	opts.defaults()
	s := &SegmentStore{
		dir:      dir,
		vfs:      opts.VFS,
		opts:     opts,
		index:    make(map[PersistentAddress]segLoc),
		segments: make(map[uint64]*segmentInfo),
		now:      time.Now,
		stop:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.vfs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	if err := s.recoverAll(); err != nil {
		return nil, err
	}
	s.publishGauges()
	if opts.CompactEvery > 0 {
		s.wg.Add(1)
		go s.compactLoop()
	}
	return s, nil
}

// Dir returns the backing directory.
func (s *SegmentStore) Dir() string { return s.dir }

// Close stops the compaction loop and closes the active segment. It
// fences writers with the store's sticky write error: Put, PutBatch,
// Delete and CompactNow return ErrClosed from then on, and a writer
// caught between its append and its group commit gets ErrClosed, not
// an acknowledgement. Reads of committed records keep working.
func (s *SegmentStore) Close() error {
	s.compactMu.Lock() // wait out an in-flight compaction
	s.stopOnce.Do(func() { close(s.stop) })
	s.compactMu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLocked(ErrClosed)
	for s.syncing {
		s.cond.Wait() // the commit leader is inside Sync on s.active
	}
	if s.active != nil {
		err := s.active.Close()
		s.active = nil
		return err
	}
	return nil
}

func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segFilePrefix, n, segFileExt))
}

func parseSegName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, segFilePrefix)
	if !ok || !strings.HasSuffix(rest, segFileExt) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(rest, segFileExt), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ---- recovery ----

// recoverAll scans every segment in ascending order, rebuilding the
// index (newest record per address wins), truncating crash tails,
// quarantining mid-file damage, and reopening or recreating the active
// segment.
func (s *SegmentStore) recoverAll() error {
	entries, err := s.vfs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSegName(e.Name()); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	var lastClean bool // last segment ended at a clean record boundary
	var lastChain uint32
	var lastSize int64
	for i, n := range segs {
		isLast := i == len(segs)-1
		clean, chain, size, err := s.recoverSegment(n, isLast)
		if err != nil {
			return err
		}
		if isLast {
			lastClean, lastChain, lastSize = clean, chain, size
		}
	}
	if len(segs) > 0 && lastClean {
		// Reopen the last segment for appending.
		n := segs[len(segs)-1]
		f, err := s.vfs.OpenFile(segPath(s.dir, n), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("persist: %w", err)
		}
		s.active, s.activeSeg, s.activeSize, s.chain = f, n, lastSize, lastChain
		return nil
	}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	return s.openActiveLocked(next)
}

// recoverSegment scans one segment file. It returns whether the file
// ended cleanly (usable as the append target), the final chain value,
// and the usable size.
func (s *SegmentStore) recoverSegment(n uint64, isLast bool) (clean bool, chain uint32, size int64, err error) {
	path := segPath(s.dir, n)
	data, err := s.vfs.ReadFile(path)
	if err != nil {
		return false, 0, 0, fmt.Errorf("persist: %w", err)
	}
	info := &segmentInfo{tombs: make(map[PersistentAddress]uint64)}
	hdr := len(segFileMagic)
	if len(data) < hdr || string(data[:hdr]) != segFileMagic {
		// The file header itself never made it down. If this is the
		// last segment it is an unacknowledged roll — discard; anywhere
		// else it is damage — quarantine the whole file.
		if isLast {
			s.vfs.Remove(path)
			return false, 0, 0, nil
		}
		s.quarantineBytes(n, 0, data)
		s.vfs.Remove(path)
		return false, 0, 0, nil
	}

	off := int64(hdr)
	b := data[hdr:]
	chain = 0
	clean = true
	for len(b) > 0 {
		rec, consumed, derr := decodeSegRecord(b, chain)
		if derr == nil {
			s.applyRecord(n, rec, off, consumed, info)
			chain = rec.chain
			off += int64(consumed)
			b = b[consumed:]
			continue
		}
		// Invalid bytes at off. Look for a later self-valid record to
		// resync onto; damage with nothing valid after it in the last
		// segment is a crash tail.
		resync := s.findResync(b)
		if resync < 0 {
			if isLast {
				// Crash tail: unacknowledged records — truncate, keep
				// the segment appendable.
				if terr := s.vfs.Truncate(path, off); terr != nil {
					return false, 0, 0, fmt.Errorf("persist: truncating crash tail: %w", terr)
				}
				s.segments[n] = info
				info.bytes = off
				return true, chain, off, nil
			}
			// Damage to EOF in a sealed segment.
			s.quarantineBytes(n, off, b)
			clean = false
			b = nil
			break
		}
		// Damage followed by valid records: quarantine the gap, resync.
		s.quarantineBytes(n, off, b[:resync])
		off += int64(resync)
		b = b[resync:]
		rec, consumed, _ = decodeSegRecord(b, chain)
		s.applyRecord(n, rec, off, consumed, info)
		chain = rec.chain // chain is broken across the gap; restart from here
		off += int64(consumed)
		b = b[consumed:]
		clean = false // damaged segments are sealed, never appended to
	}
	info.bytes = off
	s.segments[n] = info
	if !isLast {
		info.sealed = true
		return false, chain, off, nil
	}
	if !clean {
		info.sealed = true
	}
	return clean, chain, off, nil
}

// applyRecord folds one valid record into the index. The address
// sequence is bumped from every record — including deletes — so a
// reopened store never re-mints an address that appears anywhere in the
// log (a reused address could be masked by a carried-forward tombstone).
func (s *SegmentStore) applyRecord(seg uint64, rec segRecord, off int64, n int, info *segmentInfo) {
	info.records++
	if seq, ok := parseSeq(string(rec.addr)); ok && seq > s.nextRec {
		s.nextRec = seq
	}
	switch rec.kind {
	case segKindPut:
		s.index[rec.addr] = segLoc{seg: seg, off: off, n: n}
	case segKindDelete:
		putSeg := uint64(0)
		if loc, ok := s.index[rec.addr]; ok {
			putSeg = loc.seg
		}
		delete(s.index, rec.addr)
		info.tombs[rec.addr] = putSeg
	}
}

// findResync scans b for the next offset at which a full self-valid
// record decodes. Returns -1 if none exists.
func (s *SegmentStore) findResync(b []byte) int {
	for i := 1; i+segRecHdrLen <= len(b); i++ {
		if string(b[i:i+4]) != segRecMagic {
			continue
		}
		if _, _, err := decodeSegRecord(b[i:], 0); err == nil {
			return i
		}
	}
	return -1
}

// quarantineBytes copies a damaged byte range into quarantine/ and
// counts it. Best-effort: losing the copy loses forensics, not data —
// the range was already unreadable.
func (s *SegmentStore) quarantineBytes(seg uint64, off int64, b []byte) {
	s.quarantined++
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter("persist/quarantined_records").Inc()
	}
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := s.vfs.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	name := fmt.Sprintf("seg-%08d-off-%d.damaged", seg, off)
	s.vfs.WriteFile(filepath.Join(qdir, name), b, 0o644)
}

// openActiveLocked creates segment n, writes its header durably, and
// makes it the append target.
func (s *SegmentStore) openActiveLocked(n uint64) error {
	f, err := s.vfs.OpenFile(segPath(s.dir, n), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write([]byte(segFileMagic)); err != nil {
		f.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
		if err := s.vfs.SyncDir(s.dir); err != nil {
			f.Close()
			return fmt.Errorf("persist: %w", err)
		}
	}
	s.active = f
	s.activeSeg = n
	s.activeSize = int64(len(segFileMagic))
	s.chain = 0
	s.segments[n] = &segmentInfo{bytes: s.activeSize, tombs: make(map[PersistentAddress]uint64)}
	s.publishGauges()
	return nil
}

// ---- writes ----

// Put implements Store: append one put record, wait for its group
// commit.
func (s *SegmentStore) Put(o OPR) (PersistentAddress, error) {
	addrs, err := s.PutBatch([]OPR{o})
	if err != nil {
		return "", err
	}
	return addrs[0], nil
}

// PutBatch implements BatchPutter: all records are appended under one
// lock hold and share a single commit epoch, so the whole batch costs
// one fsync (at most — sync absorption can fold several batches into
// one).
func (s *SegmentStore) PutBatch(oprs []OPR) ([]PersistentAddress, error) {
	if len(oprs) == 0 {
		return nil, nil
	}
	now := s.now()
	s.mu.Lock()
	if s.werr != nil {
		err := s.werr
		s.mu.Unlock()
		return nil, err
	}
	addrs := make([]PersistentAddress, len(oprs))
	type placed struct {
		addr PersistentAddress
		loc  segLoc
	}
	placements := make([]placed, 0, len(oprs))
	var buf []byte
	for i, o := range oprs {
		if o.Saved.IsZero() {
			o.Saved = now
		}
		s.nextRec++
		addr := PersistentAddress(fmt.Sprintf("opr-%d-%d-%d", s.nextRec, o.LOID.ClassID, o.LOID.ClassSpecific))
		addrs[i] = addr
		buf, s.chain = appendSegRecord(buf[:0], segKindPut, addr, o.Marshal(nil), s.chain)
		off := s.activeSize
		if err := s.appendLocked(buf); err != nil {
			s.mu.Unlock()
			return nil, err
		}
		placements = append(placements, placed{addr, segLoc{seg: s.activeSeg, off: off, n: len(buf)}})
	}
	epoch := s.bumpEpochLocked(len(oprs))
	err := s.commitWaitLocked(epoch)
	if err == nil {
		for _, p := range placements {
			s.index[p.addr] = p.loc
		}
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return addrs, nil
}

// Delete implements Store: append a tombstone record and commit it.
func (s *SegmentStore) Delete(addr PersistentAddress) error {
	s.mu.Lock()
	if s.werr != nil {
		err := s.werr
		s.mu.Unlock()
		return err
	}
	loc, ok := s.index[addr]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	var buf []byte
	buf, s.chain = appendSegRecord(nil, segKindDelete, addr, nil, s.chain)
	if err := s.appendLocked(buf); err != nil {
		s.mu.Unlock()
		return err
	}
	s.segments[s.activeSeg].tombs[addr] = loc.seg
	epoch := s.bumpEpochLocked(1)
	err := s.commitWaitLocked(epoch)
	if err == nil {
		delete(s.index, addr)
	}
	s.mu.Unlock()
	return err
}

// appendLocked writes raw record bytes to the active segment. A write
// error (including an injected torn write) is a sticky store failure:
// the log tail is now indeterminate. A failed or closed store takes no
// more appends — after Close there is no active segment to write.
func (s *SegmentStore) appendLocked(b []byte) error {
	if s.werr != nil {
		return s.werr
	}
	if _, err := s.active.Write(b); err != nil {
		s.failLocked(fmt.Errorf("persist: segment append: %w", err))
		return s.werr
	}
	s.activeSize += int64(len(b))
	s.pendingBytes += len(b)
	if info := s.segments[s.activeSeg]; info != nil {
		info.records++
		info.bytes = s.activeSize
	}
	return nil
}

func (s *SegmentStore) bumpEpochLocked(recs int) uint64 {
	s.appended++
	s.pendingRecs += recs
	return s.appended
}

func (s *SegmentStore) failLocked(err error) {
	if s.werr == nil {
		s.werr = err
	}
	s.cond.Broadcast()
}

// commitWaitLocked blocks until epoch is durable (committed >= epoch)
// or the store has failed. Called with s.mu held; returns with it held.
//
// The first waiter that finds no fsync in flight becomes the leader: it
// captures the current append epoch, releases the lock, optionally
// lingers (GroupDelay) to let stragglers pile on, fsyncs once, and
// advances committed past everything the fsync covered. Writers that
// arrived during the fsync find syncing==true and wait — they form the
// next batch. This is sync absorption: the slower the disk, the bigger
// the batches get, and throughput stays ~constant instead of collapsing
// to one record per fsync.
func (s *SegmentStore) commitWaitLocked(epoch uint64) error {
	if s.opts.NoSync {
		s.committed = s.appended
		s.pendingRecs = 0
		return s.werr
	}
	for s.committed < epoch && s.werr == nil {
		if s.syncing {
			s.cond.Wait()
			continue
		}
		s.syncing = true
		if s.opts.GroupDelay > 0 && s.pendingBytes < s.opts.GroupBytes {
			s.mu.Unlock()
			time.Sleep(s.opts.GroupDelay)
			s.mu.Lock()
		}
		target := s.appended
		recs := s.pendingRecs
		s.pendingRecs = 0
		s.pendingBytes = 0
		f := s.active
		s.mu.Unlock()
		err := f.Sync()
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			s.failLocked(fmt.Errorf("persist: group commit fsync: %w", err))
		} else {
			s.committed = target
			s.groupCommits++
			if s.opts.Metrics != nil {
				s.opts.Metrics.Counter("persist/group_commit").Inc()
				s.opts.Metrics.Counter("persist/group_commit_recs").Add(uint64(recs))
			}
			s.maybeRollLocked()
		}
		s.cond.Broadcast()
	}
	if s.committed >= epoch {
		return nil
	}
	return s.werr
}

// maybeRollLocked seals the active segment and opens a fresh one once
// the size target is exceeded and nothing is uncommitted.
func (s *SegmentStore) maybeRollLocked() {
	if s.werr != nil || s.activeSize < s.opts.TargetSegmentBytes || s.appended != s.committed {
		return
	}
	if info := s.segments[s.activeSeg]; info != nil {
		info.sealed = true
	}
	s.active.Close()
	if err := s.openActiveLocked(s.activeSeg + 1); err != nil {
		s.failLocked(err)
	}
}

// ---- reads ----

// Get implements Store: point-read the record bytes from its segment
// and validate the self-CRC before decoding.
func (s *SegmentStore) Get(addr PersistentAddress) (OPR, error) {
	s.mu.Lock()
	loc, ok := s.index[addr]
	s.mu.Unlock()
	if !ok {
		return OPR{}, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	f, err := s.vfs.Open(segPath(s.dir, loc.seg))
	if err != nil {
		return OPR{}, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	buf := make([]byte, loc.n)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return OPR{}, fmt.Errorf("persist: reading %s: %w", addr, err)
	}
	// Chain continuity was checked at write/recovery; a point read can
	// only verify the self-CRC, which is what matters for this record.
	rec, _, err := decodeSegRecord(buf, 0)
	if err != nil {
		return OPR{}, fmt.Errorf("%s: %w", addr, errSegCRC)
	}
	if rec.addr != addr || rec.kind != segKindPut {
		return OPR{}, fmt.Errorf("%s: %w (index/record mismatch)", addr, ErrCorrupt)
	}
	o, err := Unmarshal(rec.payload)
	if err != nil {
		return OPR{}, fmt.Errorf("%s: %w: %v", addr, ErrCorrupt, err)
	}
	return o, nil
}

// List implements Store.
func (s *SegmentStore) List() ([]PersistentAddress, error) {
	s.mu.Lock()
	out := make([]PersistentAddress, 0, len(s.index))
	for a := range s.index {
		out = append(out, a)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// ExportSnapshot implements SnapshotExporter.
func (s *SegmentStore) ExportSnapshot(addrs []PersistentAddress) ([]byte, error) {
	return exportSnapshot(s, addrs)
}

// ---- compaction ----

func (s *SegmentStore) compactLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.CompactNow()
		}
	}
}

// CompactNow scans sealed segments and rewrites any whose dead fraction
// exceeds CompactRatio: live records are re-appended (same address) to
// the active segment, still-needed tombstones are carried forward, the
// batch is group-committed, and only then is the old file deleted — a
// crash at any point leaves either the old segment, or the old segment
// plus duplicate (identical, newer-segment-wins) copies, never a loss.
func (s *SegmentStore) CompactNow() (reclaimed int, err error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	err = s.werr
	s.mu.Unlock()
	if err != nil {
		return 0, err
	}
	for {
		seg, ok := s.pickCompactionVictim()
		if !ok {
			return reclaimed, nil
		}
		if err := s.compactSegment(seg); err != nil {
			return reclaimed, err
		}
		reclaimed++
	}
}

// pickCompactionVictim returns the lowest-numbered sealed segment whose
// dead fraction exceeds the ratio.
func (s *SegmentStore) pickCompactionVictim() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make(map[uint64]int, len(s.segments))
	for _, loc := range s.index {
		live[loc.seg]++
	}
	var best uint64
	found := false
	for n, info := range s.segments {
		if !info.sealed || n == s.activeSeg || info.records == 0 {
			continue
		}
		dead := info.records - live[n]
		if float64(dead)/float64(info.records) <= s.opts.CompactRatio {
			continue
		}
		if !found || n < best {
			best, found = n, true
		}
	}
	return best, found
}

// compactSegment rewrites one segment's live payload into the active
// segment and deletes the file.
func (s *SegmentStore) compactSegment(seg uint64) error {
	// Snapshot the live set and tombstones for this segment.
	s.mu.Lock()
	if s.werr != nil {
		err := s.werr
		s.mu.Unlock()
		return err
	}
	var liveAddrs []PersistentAddress
	for addr, loc := range s.index {
		if loc.seg == seg {
			liveAddrs = append(liveAddrs, addr)
		}
	}
	info := s.segments[seg]
	tombs := make(map[PersistentAddress]uint64, len(info.tombs))
	for a, p := range info.tombs {
		tombs[a] = p
	}
	minOther := uint64(0)
	for n := range s.segments {
		if n == seg {
			continue
		}
		if minOther == 0 || n < minOther {
			minOther = n
		}
	}
	records := info.records
	bytes := info.bytes
	s.mu.Unlock()

	var lastEpoch uint64
	moved := 0
	for _, addr := range liveAddrs {
		// Read outside the lock; re-check the index before rewriting so
		// a concurrent Delete is not resurrected.
		o, err := s.Get(addr)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return fmt.Errorf("persist: compaction read %s: %w", addr, err)
		}
		payload := o.Marshal(nil)
		s.mu.Lock()
		if s.werr != nil {
			err := s.werr
			s.mu.Unlock()
			return err
		}
		loc, still := s.index[addr]
		if !still || loc.seg != seg {
			s.mu.Unlock()
			continue
		}
		var buf []byte
		buf, s.chain = appendSegRecord(nil, segKindPut, addr, payload, s.chain)
		off := s.activeSize
		if err := s.appendLocked(buf); err != nil {
			s.mu.Unlock()
			return err
		}
		s.index[addr] = segLoc{seg: s.activeSeg, off: off, n: len(buf)}
		lastEpoch = s.bumpEpochLocked(1)
		moved++
		s.mu.Unlock()
	}

	// Carry forward tombstones that still mask a put in a surviving
	// older segment.
	s.mu.Lock()
	for addr, putSeg := range tombs {
		if minOther > putSeg {
			continue // every segment that could hold the put is gone
		}
		var buf []byte
		buf, s.chain = appendSegRecord(nil, segKindDelete, addr, nil, s.chain)
		if err := s.appendLocked(buf); err != nil {
			s.mu.Unlock()
			return err
		}
		s.segments[s.activeSeg].tombs[addr] = putSeg
		lastEpoch = s.bumpEpochLocked(1)
	}
	var err error
	if lastEpoch > 0 {
		err = s.commitWaitLocked(lastEpoch)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// The copies are durable; the old segment is now garbage.
	delete(s.segments, seg)
	s.gcSegments++
	s.gcRecords += records - moved
	s.gcBytes += bytes
	if s.opts.Metrics != nil {
		s.opts.Metrics.Counter("persist/gc/segments").Inc()
		s.opts.Metrics.Counter("persist/gc/records").Add(uint64(records - moved))
		s.opts.Metrics.Counter("persist/gc/bytes").Add(uint64(bytes))
	}
	s.publishGauges()
	s.mu.Unlock()
	if err := s.vfs.Remove(segPath(s.dir, seg)); err != nil {
		return fmt.Errorf("persist: removing compacted segment: %w", err)
	}
	if s.opts.NoSync {
		return nil
	}
	return s.vfs.SyncDir(s.dir)
}

// publishGauges refreshes gauge-style counters. Called with s.mu held
// (or during single-threaded recovery).
func (s *SegmentStore) publishGauges() {
	if s.opts.Metrics == nil {
		return
	}
	s.opts.Metrics.Counter("persist/segments").Set(uint64(len(s.segments)))
}

// Quarantined reports how many damaged ranges recovery has moved aside.
func (s *SegmentStore) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Stats implements StatsProvider.
func (s *SegmentStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Backend:     "segment",
		Records:     len(s.index),
		Segments:    len(s.segments),
		Quarantined: s.quarantined,
		GCSegments:  s.gcSegments,
		GCRecords:   s.gcRecords,
		GroupCommit: s.groupCommits,
	}
}
