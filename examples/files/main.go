// Files: the paper's motivating scenario — "remote files and data more
// easily accessible" through a single persistent name space (§1). File
// objects are ordinary Legion objects (generated from file.idl with
// legion-idl); a context object gives them human names; deactivation
// parks cold files as OPRs on jurisdiction storage, and reading a cold
// file transparently reactivates it.
//
//	go run ./examples/files
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"repro/internal/core"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/naming"
	"repro/internal/rt"
)

// fileServer implements the generated FileServer interface with
// explicit SaveState support.
type fileServer struct {
	mu   sync.Mutex
	data []byte
}

func (f *fileServer) ReadAt(_ context.Context, offset uint64, n uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if offset >= uint64(len(f.data)) {
		return nil, nil
	}
	end := offset + n
	if end > uint64(len(f.data)) {
		end = uint64(len(f.data))
	}
	out := make([]byte, end-offset)
	copy(out, f.data[offset:end])
	return out, nil
}

func (f *fileServer) WriteAt(_ context.Context, offset uint64, data []byte) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	need := offset + uint64(len(data))
	if need > uint64(len(f.data)) {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[offset:], data)
	return uint64(len(f.data)), nil
}

func (f *fileServer) Size(context.Context) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(len(f.data)), nil
}

func (f *fileServer) Truncate(_ context.Context, size uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < uint64(len(f.data)) {
		f.data = f.data[:size]
	}
	return nil
}

// newRegisteredFileImpl wires a fileServer into the generated binding,
// with SaveState/RestoreState carrying the file contents through
// deactivation and migration.
func newRegisteredFileImpl() rt.Impl {
	srv := &fileServer{}
	return NewFileImpl(srv,
		func() ([]byte, error) {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return append([]byte(nil), srv.data...), nil
		},
		func(b []byte) error {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			srv.data = append([]byte(nil), b...)
			return nil
		},
	)
}

func main() {
	impls := implreg.NewRegistry()
	impls.MustRegister("file", newRegisteredFileImpl)
	sys, err := core.Boot(core.Options{
		Impls:                impls,
		HostsPerJurisdiction: 2,
		DataDir:              "", // in-memory vault; set a dir for on-disk OPRs
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// A class of files and a naming context (a Legion object too).
	fileClass, _, err := sys.DeriveClass("File", "file", FileInterface(), 0)
	if err != nil {
		log.Fatal(err)
	}
	ctxClass, _, err := sys.DeriveClass("Context", naming.ImplName, naming.Interface, 0)
	if err != nil {
		log.Fatal(err)
	}
	ctxObj, _, err := ctxClass.Create(nil, loid.Nil, loid.Nil)
	if err != nil {
		log.Fatal(err)
	}

	alice, err := sys.NewClient(loid.New(300, 1, loid.DeriveKey("alice")))
	if err != nil {
		log.Fatal(err)
	}
	bg := context.Background()
	names := alice.To(ctxObj)

	// Alice creates two files and names them.
	for _, name := range []string{"/home/alice/notes.txt", "/home/alice/data.bin"} {
		fl, _, err := fileClass.Create(nil, loid.Nil, loid.Nil)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := naming.BindName.Call(bg, names, name, fl, false); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("created %-24s -> %v\n", name, fl)
	}

	// Write through the generated, fully typed method descriptors.
	notesLOID, err := naming.LookupName.Call(bg, names, "/home/alice/notes.txt")
	if err != nil {
		log.Fatal(err)
	}
	notes := alice.To(notesLOID)
	if _, err := FileWriteAt.Call(bg, notes, 0, []byte("The Core Legion Object Model\n")); err != nil {
		log.Fatal(err)
	}
	size, err := FileWriteAt.Call(bg, notes, 29, []byte("Lewis & Grimshaw, 1995\n"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("notes.txt is %d bytes\n", size)

	// Bob, a different client, finds the file by name and reads it.
	bob, err := sys.NewClient(loid.New(300, 2, loid.DeriveKey("bob")))
	if err != nil {
		log.Fatal(err)
	}
	bobNames := bob.To(ctxObj)
	found, err := naming.LookupName.Call(bg, bobNames, "/home/alice/notes.txt")
	if err != nil {
		log.Fatal(err)
	}
	bobNotes := bob.To(found)
	data, err := FileReadAt.Call(bg, bobNotes, 0, 1024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob reads:\n%s", data)

	// The file goes cold: deactivate it (Fig 11). Bob's next read
	// transparently reactivates it, contents intact.
	mag := magistrate.NewClient(sys.BootClient(), sys.Jurisdictions[0].Magistrate)
	if err := mag.Deactivate(found); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfile deactivated; jurisdiction stores %d OPR(s)\n", sys.Jurisdictions[0].StoredOPRs())
	line, err := FileReadAt.Call(bg, bobNotes, 29, 22)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob reads after reactivation: %q\n", line)

	// Truncate + Size round out the interface.
	if _, err := FileTruncate.Call(bg, bobNotes, 28); err != nil {
		log.Fatal(err)
	}
	sz, err := FileSize.Call(bg, bobNotes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after truncate: %d bytes\n", sz)
}
