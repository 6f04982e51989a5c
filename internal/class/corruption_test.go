package class

import (
	"math/rand"
	"testing"

	"repro/internal/idl"
	"repro/internal/loid"
)

// TestClassStateRestoreNeverPanics fuzzes class-object state
// restoration: an OPR read off disk or a migrated blob may be
// arbitrarily corrupted, and activation must fail with an error, never
// a panic.
func TestClassStateRestoreNeverPanics(t *testing.T) {
	meta := &Meta{
		Self:              loid.New(300, 0, loid.DeriveKey("fuzz")),
		Name:              "Fuzzed",
		Super:             loid.LegionObject,
		ImplParts:         []string{"impl-a", "impl-b"},
		Bases:             []loid.LOID{loid.NewNoKey(301, 0)},
		InstanceInterface: idl.NewInterface("Fuzzed", idl.MethodSig{Name: "M"}),
		NextSeq:           9,
		DefaultMagistrates: []loid.LOID{
			loid.NewNoKey(loid.ClassIDMagistrate, 1),
			loid.NewNoKey(loid.ClassIDMagistrate, 2),
		},
	}
	impl, err := NewClassImpl(meta)
	if err != nil {
		t.Fatal(err)
	}
	impl.table[loid.NewNoKey(300, 1).Ident()] = &Row{
		CurrentMagistrates: []loid.LOID{loid.NewNoKey(loid.ClassIDMagistrate, 1)},
	}
	valid, err := impl.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		var buf []byte
		if i%2 == 0 {
			buf = make([]byte, rng.Intn(len(valid)*2))
			rng.Read(buf)
		} else {
			buf = append([]byte(nil), valid...)
			for j := 0; j < 1+rng.Intn(5); j++ {
				if len(buf) > 0 {
					buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
				}
			}
			if rng.Intn(3) == 0 && len(buf) > 0 {
				buf = buf[:rng.Intn(len(buf))]
			}
		}
		fresh := NewEmptyClassImpl().(*ClassImpl)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("RestoreState panic on %d bytes: %v", len(buf), r)
				}
			}()
			fresh.RestoreState(buf)
		}()
	}
}

// TestMetaclassStateRestoreNeverPanics does the same for LegionClass.
func TestMetaclassStateRestoreNeverPanics(t *testing.T) {
	m, err := NewMetaclass()
	if err != nil {
		t.Fatal(err)
	}
	m.pairs[loid.NewNoKey(400, 0)] = loid.NewNoKey(300, 0)
	m.names[400] = "Fuzzed"
	valid, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 3000; i++ {
		buf := append([]byte(nil), valid...)
		for j := 0; j < 1+rng.Intn(5); j++ {
			if len(buf) > 0 {
				buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
			}
		}
		if rng.Intn(3) == 0 && len(buf) > 0 {
			buf = buf[:rng.Intn(len(buf))]
		}
		fresh, _ := NewMetaclass()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Metaclass RestoreState panic: %v", r)
				}
			}()
			fresh.RestoreState(buf)
		}()
	}
}
