package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteFileAtomicSyncOrder: the new file's bytes are fsynced before
// the rename publishes them under the final name, and the directory is
// fsynced after it. Otherwise a power loss can leave the name pointing
// at an empty file, or un-happen the rename.
func TestWriteFileAtomicSyncOrder(t *testing.T) {
	rec := &recordingVFS{VFS: OS{}}
	path := filepath.Join(t.TempDir(), "system.state")
	if err := WriteFileAtomic(rec, path, []byte("tables")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"sync", "rename", "syncdir"}; !reflect.DeepEqual(rec.ops, want) {
		t.Errorf("durability calls = %v, want %v", rec.ops, want)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "tables" {
		t.Errorf("file = %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestWriteFileAtomicSyncErrors: a failed file fsync (1st sync) or
// directory fsync (2nd) is returned, never swallowed; a failed file
// fsync also leaves the old file in place and no temp file behind.
func TestWriteFileAtomicSyncErrors(t *testing.T) {
	for _, failAt := range []int{1, 2} {
		path := filepath.Join(t.TempDir(), "system.state")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := WriteFileAtomic(NewFaultVFS(FaultPlan{FailSyncAt: failAt}), path, []byte("new"))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("sync %d failing: WriteFileAtomic = %v, want the injected error", failAt, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("sync %d failing: temp file left behind: %v", failAt, err)
		}
		if failAt == 1 {
			if got, _ := os.ReadFile(path); string(got) != "old" {
				t.Errorf("unsynced bytes replaced the old file: %q", got)
			}
		}
	}
}

// recordingVFS logs the calls that make a write durable, in order.
type recordingVFS struct {
	VFS
	ops []string
}

func (r *recordingVFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := r.VFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, r: r}, nil
}

func (r *recordingVFS) Rename(oldpath, newpath string) error {
	r.ops = append(r.ops, "rename")
	return r.VFS.Rename(oldpath, newpath)
}

func (r *recordingVFS) SyncDir(name string) error {
	r.ops = append(r.ops, "syncdir")
	return r.VFS.SyncDir(name)
}

type recordingFile struct {
	File
	r *recordingVFS
}

func (f *recordingFile) Sync() error {
	f.r.ops = append(f.r.ops, "sync")
	return f.File.Sync()
}
