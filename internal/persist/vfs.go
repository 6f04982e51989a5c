package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// VFS is the narrow filesystem surface the stores write through. The
// production implementation is OS (plain os calls); tests and the
// recovery matrix substitute a FaultVFS that injects torn writes, short
// reads, fsync errors, and crash-point truncation — the storage
// failures §4.3's partial-failure argument says a Jurisdiction must
// absorb without losing acknowledged state.
type VFS interface {
	// OpenFile opens a file for writing/appending.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file read-only.
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(name string, perm os.FileMode) error
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames/creates in it durable.
	SyncDir(name string) error
}

// File is the per-file surface of a VFS.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
}

// OS is the passthrough VFS.
type OS struct{}

// OpenFile implements VFS.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Open implements VFS.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// ReadFile implements VFS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements VFS.
func (OS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// Rename implements VFS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements VFS.
func (OS) Remove(name string) error { return os.Remove(name) }

// ReadDir implements VFS.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// MkdirAll implements VFS.
func (OS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }

// Truncate implements VFS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir implements VFS.
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic replaces path with data so that a crash or power loss
// leaves either the old file or the whole new one under that name: it
// writes a temp file beside path, fsyncs and closes it, renames it into
// place, and fsyncs the directory so the rename itself is durable. On
// failure the temp file is removed and the error returned.
func WriteFileAtomic(v VFS, path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeSynced(v, tmp, data); err != nil {
		v.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := v.Rename(tmp, path); err != nil {
		v.Remove(tmp)
		return fmt.Errorf("persist: %w", err)
	}
	if err := v.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("persist: dir sync: %w", err)
	}
	return nil
}

func writeSynced(v VFS, path string, data []byte) error {
	f, err := v.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ErrInjected marks a fault the FaultVFS injected (as opposed to a real
// filesystem error).
var ErrInjected = errors.New("persist: injected storage fault")

// ErrCrashed is returned by every FaultVFS operation after its crash
// point fired: the process is "dead" as far as this store is concerned.
var ErrCrashed = fmt.Errorf("%w: crashed", ErrInjected)

// FaultPlan arms a FaultVFS. Counters are 1-based: FailSyncAt == 3
// makes the third Sync/SyncDir call fail. Zero fields disable that
// fault.
type FaultPlan struct {
	// CrashAtWrite makes the Nth data write a torn write: only
	// TornBytes of it (default: half) reach the file, the write returns
	// ErrCrashed, and every subsequent operation fails with ErrCrashed —
	// a power failure mid-append.
	CrashAtWrite int
	// TornBytes is how much of the crashing write lands (default n/2).
	TornBytes int
	// FailSyncAt makes the Nth Sync or SyncDir return an injected error
	// WITHOUT crashing: the store must treat the batch as
	// unacknowledged and refuse to pretend it is durable.
	FailSyncAt int
	// ShortReadAt makes the Nth ReadFile/ReadAt return only half of the
	// requested bytes (transient short read).
	ShortReadAt int
	// CrashAtSync makes the Nth Sync crash the VFS after syncing
	// nothing: the batch is unacknowledged AND the process dies.
	CrashAtSync int
}

// FaultVFS wraps an inner VFS (default OS) with scripted storage
// faults. It is safe for concurrent use. After a crash fault fires the
// entire VFS is dead; Reopen the store over a fresh VFS to model the
// post-reboot recovery.
type FaultVFS struct {
	Inner VFS
	plan  FaultPlan

	writes  atomic.Int64
	syncs   atomic.Int64
	reads   atomic.Int64
	crashed atomic.Bool

	mu sync.Mutex
}

// NewFaultVFS builds a FaultVFS over OS with the given plan.
func NewFaultVFS(plan FaultPlan) *FaultVFS {
	return &FaultVFS{Inner: OS{}, plan: plan}
}

// Crash kills the VFS immediately: every later operation fails with
// ErrCrashed.
func (v *FaultVFS) Crash() { v.crashed.Store(true) }

// Crashed reports whether the crash point fired.
func (v *FaultVFS) Crashed() bool { return v.crashed.Load() }

func (v *FaultVFS) check() error {
	if v.crashed.Load() {
		return ErrCrashed
	}
	return nil
}

// OpenFile implements VFS.
func (v *FaultVFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	f, err := v.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{v: v, f: f}, nil
}

// Open implements VFS.
func (v *FaultVFS) Open(name string) (File, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	f, err := v.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{v: v, f: f}, nil
}

// ReadFile implements VFS.
func (v *FaultVFS) ReadFile(name string) ([]byte, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	data, err := v.Inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if n := v.reads.Add(1); v.plan.ShortReadAt > 0 && int(n) == v.plan.ShortReadAt {
		return data[:len(data)/2], nil
	}
	return data, nil
}

// WriteFile implements VFS.
func (v *FaultVFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	if err := v.check(); err != nil {
		return err
	}
	if n := v.writes.Add(1); v.plan.CrashAtWrite > 0 && int(n) >= v.plan.CrashAtWrite {
		v.crashed.Store(true)
		torn := v.plan.TornBytes
		if torn <= 0 || torn > len(data) {
			torn = len(data) / 2
		}
		_ = v.Inner.WriteFile(name, data[:torn], perm)
		return ErrCrashed
	}
	return v.Inner.WriteFile(name, data, perm)
}

// Rename implements VFS.
func (v *FaultVFS) Rename(oldpath, newpath string) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.Inner.Rename(oldpath, newpath)
}

// Remove implements VFS.
func (v *FaultVFS) Remove(name string) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.Inner.Remove(name)
}

// ReadDir implements VFS.
func (v *FaultVFS) ReadDir(name string) ([]os.DirEntry, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	return v.Inner.ReadDir(name)
}

// MkdirAll implements VFS.
func (v *FaultVFS) MkdirAll(name string, perm os.FileMode) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.Inner.MkdirAll(name, perm)
}

// Truncate implements VFS.
func (v *FaultVFS) Truncate(name string, size int64) error {
	if err := v.check(); err != nil {
		return err
	}
	return v.Inner.Truncate(name, size)
}

// SyncDir implements VFS.
func (v *FaultVFS) SyncDir(name string) error {
	if err := v.check(); err != nil {
		return err
	}
	if err := v.syncFault(); err != nil {
		return err
	}
	return v.Inner.SyncDir(name)
}

func (v *FaultVFS) syncFault() error {
	n := int(v.syncs.Add(1))
	if v.plan.CrashAtSync > 0 && n >= v.plan.CrashAtSync {
		v.crashed.Store(true)
		return ErrCrashed
	}
	if v.plan.FailSyncAt > 0 && n == v.plan.FailSyncAt {
		return fmt.Errorf("%w: fsync failed", ErrInjected)
	}
	return nil
}

// faultFile threads a file's writes, reads, and syncs through the
// owning FaultVFS's plan.
type faultFile struct {
	v *FaultVFS
	f File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.v.check(); err != nil {
		return 0, err
	}
	if n := ff.v.writes.Add(1); ff.v.plan.CrashAtWrite > 0 && int(n) >= ff.v.plan.CrashAtWrite {
		ff.v.crashed.Store(true)
		torn := ff.v.plan.TornBytes
		if torn <= 0 || torn > len(p) {
			torn = len(p) / 2
		}
		if torn > 0 {
			ff.f.Write(p[:torn])
		}
		return 0, ErrCrashed
	}
	return ff.f.Write(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.v.check(); err != nil {
		return 0, err
	}
	n, err := ff.f.ReadAt(p, off)
	if c := ff.v.reads.Add(1); ff.v.plan.ShortReadAt > 0 && int(c) == ff.v.plan.ShortReadAt && n > 0 {
		return n / 2, io.ErrUnexpectedEOF
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if err := ff.v.check(); err != nil {
		return err
	}
	if err := ff.v.syncFault(); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
