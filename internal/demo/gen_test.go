package demo

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/rt"
	"repro/internal/transport"
)

// TestGeneratedMatchesIDL: the checked-in generated interface must be
// equivalent to the IDL source it was generated from.
func TestGeneratedMatchesIDL(t *testing.T) {
	fromIDL, err := idl.ParseOne(CounterIDL)
	if err != nil {
		t.Fatal(err)
	}
	if !CounterInterface().Equal(fromIDL) {
		t.Fatalf("generated interface drifted from CounterIDL:\n%s\nvs\n%s",
			CounterInterface().Format(), fromIDL.Format())
	}
}

// counterServer is a Go-native implementation of the generated
// CounterServer interface.
type counterServer struct {
	mu sync.Mutex
	v  int64
}

func (s *counterServer) Add(_ context.Context, delta int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.v += delta
	return s.v, nil
}

func (s *counterServer) Get(context.Context) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v, nil
}

// TestGeneratedStubsEndToEnd serves a generated impl and calls it
// through the generated descriptors — application code with no [][]byte
// in sight, exactly what the Legion-aware compiler promises (§4.1).
func TestGeneratedStubsEndToEnd(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	srvNode, err := rt.NewNode(f, nil, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer srvNode.Close()
	cliNode, err := rt.NewNode(f, nil, "cli")
	if err != nil {
		t.Fatal(err)
	}
	defer cliNode.Close()

	target := loid.NewNoKey(256, 1)
	impl := NewCounterImpl(&counterServer{}, nil, nil)
	if _, err := srvNode.Spawn(target, impl); err != nil {
		t.Fatal(err)
	}

	caller := rt.NewCaller(cliNode, loid.NewNoKey(300, 1), nil)
	caller.Timeout = 2 * time.Second
	caller.AddBinding(binding.Forever(target, srvNode.Address()))
	cc := caller.To(target)
	v, err := CounterAdd.Call(t.Context(), cc, 41)
	if err != nil || v != 41 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	v, err = CounterAdd.Call(t.Context(), cc, 1)
	if err != nil || v != 42 {
		t.Fatalf("Add = %d, %v", v, err)
	}
	v, err = CounterGet.Call(t.Context(), cc)
	if err != nil || v != 42 {
		t.Fatalf("Get = %d, %v", v, err)
	}
}

// TestGeneratedImplPersistence: save/restore hooks flow through the
// generated impl.
func TestGeneratedImplPersistence(t *testing.T) {
	srv := &counterServer{v: 7}
	impl := NewCounterImpl(srv,
		func() ([]byte, error) { return []byte{byte(srv.v)}, nil },
		func(b []byte) error {
			if len(b) == 1 {
				srv.v = int64(b[0])
			}
			return nil
		},
	)
	blob, err := impl.SaveState()
	if err != nil || len(blob) != 1 || blob[0] != 7 {
		t.Fatalf("SaveState = %v, %v", blob, err)
	}
	srv.v = 0
	if err := impl.RestoreState([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if srv.v != 9 {
		t.Errorf("restored v = %d", srv.v)
	}
}
