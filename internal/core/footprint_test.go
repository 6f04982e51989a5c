package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/wire"
)

// TestCreatedObjectFootprint bounds what one object made by a class
// Create costs the system that holds it, across every layer that keeps
// a record of it: its runtime object and mailbox, the node's table
// entry, the Host's resident record and request counter, the
// Magistrate's record and the class's row. The object's own state is a
// counter, so what shows is the scaffolding. A Caller built for an
// object that never calls out, a per-object copy of a class default, a
// 48-byte key where 16 do, or a concurrent map's nodes per entry would
// show here.
func TestCreatedObjectFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's larger frames and heap records are not the object's cost")
	}
	const (
		objects = 4096
		budget  = 1638 // bytes per created object (1.6 KiB)
	)
	impls := implreg.NewRegistry()
	impls.MustRegister("tally", func() rt.Impl { return new(tally) })
	sys := bootSys(t, Options{Impls: impls, HostsPerJurisdiction: 1})
	cl, _, err := sys.DeriveClass("Tally", "tally", tallyInterface, 0)
	if err != nil {
		t.Fatal(err)
	}
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse + ms.StackInuse
	}
	before := inuse()
	for i := 0; i < objects; i++ {
		if _, _, err := cl.Create(nil, loid.Nil, loid.Nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let every dispatch goroutine go idle before measuring.
	time.Sleep(50 * time.Millisecond)
	per := int64(inuse()-before) / objects
	t.Logf("%d B per created object", per)
	if per > budget {
		t.Errorf("a created object costs %d B, budget %d B", per, budget)
	}
}

// tally is the smallest stateful object: one counter behind a lock.
type tally struct {
	mu sync.Mutex
	n  uint64
}

var tallyInterface = idl.NewInterface("Tally",
	idl.MethodSig{Name: "Inc", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}})

func (t *tally) Interface() *idl.Interface { return tallyInterface }

func (t *tally) Dispatch(inv *rt.Invocation) ([][]byte, error) {
	if inv.Method != "Inc" {
		return nil, &rt.NoSuchMethodError{Method: inv.Method}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	return [][]byte{wire.Uint64(t.n)}, nil
}

func (t *tally) SaveState() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return wire.Uint64(t.n), nil
}

func (t *tally) RestoreState(s []byte) error {
	if len(s) == 0 {
		return nil
	}
	n, err := wire.AsUint64(s)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.n = n
	t.mu.Unlock()
	return nil
}
