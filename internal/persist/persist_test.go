package persist

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/loid"
)

func sampleOPR() OPR {
	return OPR{
		LOID:  loid.New(256, 7, loid.DeriveKey("o")),
		Impl:  "echo-v1",
		State: []byte("the state"),
		Saved: time.Unix(1000, 500),
	}
}

func TestOPRMarshalRoundTrip(t *testing.T) {
	o := sampleOPR()
	got, err := Unmarshal(o.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.LOID != o.LOID || got.Impl != o.Impl || string(got.State) != string(o.State) || !got.Saved.Equal(o.Saved) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestOPRRoundTripProperty(t *testing.T) {
	f := func(impl string, state []byte, classID, specific uint64) bool {
		o := OPR{LOID: loid.NewNoKey(classID, specific), Impl: impl, State: state}
		got, err := Unmarshal(o.Marshal(nil))
		return err == nil && got.Impl == impl && string(got.State) == string(state) && got.Saved.IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOPRUnmarshalTruncation(t *testing.T) {
	buf := sampleOPR().Marshal(nil)
	for n := 0; n < len(buf); n += 5 {
		if _, err := Unmarshal(buf[:n]); err == nil {
			t.Errorf("prefix of %d bytes accepted", n)
		}
	}
	if _, err := Unmarshal(append(buf, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func testStore(t *testing.T, s Store) {
	t.Helper()
	o := sampleOPR()
	addr, err := s.Put(o)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("empty persistent address")
	}
	got, err := s.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got.LOID != o.LOID || got.Impl != o.Impl || string(got.State) != string(o.State) {
		t.Errorf("Get = %+v", got)
	}
	if got.Saved.IsZero() {
		t.Error("Saved not stamped")
	}

	addr2, _ := s.Put(OPR{LOID: loid.NewNoKey(256, 8), Impl: "x"})
	if addr2 == addr {
		t.Error("duplicate persistent addresses")
	}
	list, err := s.List()
	if err != nil || len(list) != 2 {
		t.Fatalf("List = %v, %v", list, err)
	}

	if err := s.Delete(addr); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(addr); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: %v", err)
	}
	if err := s.Delete(addr); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	list, _ = s.List()
	if len(list) != 1 {
		t.Errorf("List after delete = %v", list)
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore())
}

func TestMemStoreIsolatesState(t *testing.T) {
	s := NewMemStore()
	o := sampleOPR()
	addr, _ := s.Put(o)
	o.State[0] = 'X' // caller mutates its buffer after Put
	got, _ := s.Get(addr)
	if got.State[0] == 'X' {
		t.Error("store shares state buffer with caller")
	}
	got.State[0] = 'Y' // reader mutates its copy
	again, _ := s.Get(addr)
	if again.State[0] == 'Y' {
		t.Error("store shares state buffer with reader")
	}
}

func TestMemStoreLen(t *testing.T) {
	s := NewMemStore()
	if s.Len() != 0 {
		t.Error("new store not empty")
	}
	s.Put(sampleOPR())
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

// TestOPRCodecAllocs gates the allocations of the OPR codecs that
// checkpointing and recovery run per object: a decode copies the impl
// name and the state and an encode grows its buffer. A batch encodes
// into one buffer sized up front and decodes to its entries' impl
// names and one slice, its states aliasing the frame.
func TestOPRCodecAllocs(t *testing.T) {
	o := OPR{LOID: loid.NewNoKey(1000, 7), Impl: "bench.impl", State: make([]byte, 200), Saved: time.Unix(1700000000, 0)}
	enc := o.Marshal(nil)
	batch := make([]OPR, 64)
	for i := range batch {
		batch[i] = o
	}
	encBatch := EncodeOPRBatch(batch)
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Unmarshal", 2, func() { Unmarshal(enc) }},
		{"OPR.Marshal", 3, func() { o.Marshal(nil) }},
		{"DecodeOPRBatch of 64", 65, func() { DecodeOPRBatch(encBatch) }},
		{"EncodeOPRBatch of 64", 1, func() { EncodeOPRBatch(batch) }},
	} {
		if n := testing.AllocsPerRun(50, c.run); n > c.max {
			t.Errorf("%s: %.0f allocs, want <= %.0f", c.name, n, c.max)
		}
	}
}
