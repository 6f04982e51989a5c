package rt

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/transport"
	"repro/internal/wire"
)

// seqImpl is a FIFO witness: each sender submits a strictly increasing
// sequence number, and the object rejects any call that arrives out of
// order for its sender. Surviving a full storm therefore proves the
// migration gates (park, replay, forward) never reorder one sender's
// pipelined frames. State round-trips through SaveState/RestoreState
// so the object can be shipped mid-storm.
type seqImpl struct {
	mu    sync.Mutex
	last  map[uint64]uint64
	total uint64
}

func (s *seqImpl) Interface() *idl.Interface {
	return idl.NewInterface("SeqWitness",
		idl.MethodSig{Name: "Add",
			Params:  []idl.Param{{Name: "sender", Type: idl.TUint64}, {Name: "seq", Type: idl.TUint64}},
			Returns: []idl.Param{{Name: "total", Type: idl.TUint64}}})
}

func (s *seqImpl) Dispatch(inv *Invocation) ([][]byte, error) {
	if inv.Method != "Add" {
		return nil, &NoSuchMethodError{Method: inv.Method}
	}
	rawS, err := inv.Arg(0)
	if err != nil {
		return nil, err
	}
	rawQ, err := inv.Arg(1)
	if err != nil {
		return nil, err
	}
	sender, _ := wire.AsUint64(rawS)
	seq, _ := wire.AsUint64(rawQ)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		s.last = make(map[uint64]uint64)
	}
	if seq != s.last[sender]+1 {
		return nil, fmt.Errorf("sender %d: seq %d after %d — FIFO broken", sender, seq, s.last[sender])
	}
	s.last[sender] = seq
	s.total++
	return [][]byte{wire.Uint64(s.total)}, nil
}

func (s *seqImpl) SaveState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, 0, 16+len(s.last)*16)
	out = binary.BigEndian.AppendUint64(out, s.total)
	out = binary.BigEndian.AppendUint64(out, uint64(len(s.last)))
	for k, v := range s.last {
		out = binary.BigEndian.AppendUint64(out, k)
		out = binary.BigEndian.AppendUint64(out, v)
	}
	return out, nil
}

func (s *seqImpl) RestoreState(state []byte) error {
	if len(state) < 16 {
		return fmt.Errorf("seqImpl: short state")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = binary.BigEndian.Uint64(state)
	n := binary.BigEndian.Uint64(state[8:])
	state = state[16:]
	s.last = make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		s.last[binary.BigEndian.Uint64(state)] = binary.BigEndian.Uint64(state[8:])
		state = state[16:]
	}
	return nil
}

func (s *seqImpl) snapshot() (map[uint64]uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[uint64]uint64, len(s.last))
	for k, v := range s.last {
		out[k] = v
	}
	return out, s.total
}

// TestMigrationStormFIFO interleaves a full migration life cycle —
// park, abort (local replay), park again, drain, ship, kill, forward —
// with concurrent pipelined invokers on both transports. Every call
// must succeed, per-sender FIFO order must hold across the replay and
// the forwarding flip, and (with -tags buftrack) no parked or
// forwarded frame may leak a pooled buffer. Run under -race: the gate
// table, the forwarding path, and concurrent receivers all contend
// here.
func TestMigrationStormFIFO(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		f := transport.NewFabric(nil)
		defer f.Close()
		runMigrationStorm(t, func() transport.Transport { return f })
	})
	t.Run("tcp", func(t *testing.T) {
		reg := metrics.NewRegistry()
		runMigrationStorm(t, ownTCP(reg))
		wantDials(t, reg)
	})
}

// runMigrationStorm runs the storm over three nodes, each built on the
// transport tr returns for it.
func runMigrationStorm(t *testing.T, tr func() transport.Transport) {
	live0 := buf.Live()
	src, err := NewNode(tr(), nil, "mig-src")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewNode(tr(), nil, "mig-dst")
	if err != nil {
		t.Fatal(err)
	}
	cliNode, err := NewNode(tr(), nil, "mig-cli")
	if err != nil {
		t.Fatal(err)
	}

	objL := loid.NewNoKey(256, 50)
	hostL := loid.NewNoKey(loid.ClassIDLegionHost, 50) // the drain's exempt identity
	impl := &seqImpl{}
	if _, err := src.Spawn(objL, impl); err != nil {
		t.Fatal(err)
	}

	const senders = 6
	const windows = 50
	const pipeline = 4
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := clientOn(cliNode, loid.NewNoKey(300, uint64(10+g)))
			c.Timeout = 5 * time.Second
			c.AddBinding(binding.Forever(objL, src.Address()))
			seq := uint64(0)
			for i := 0; i < windows; i++ {
				// A pipelined burst: several frames of one sender are in
				// flight together, so a migration flip mid-burst must
				// park/forward them without reordering.
				futures := make([]*Future, 0, pipeline)
				for k := 0; k < pipeline; k++ {
					seq++
					fu, err := c.InvokeCtx(context.Background(), objL, "Add", wire.Uint64(uint64(g)), wire.Uint64(seq))
					if err != nil {
						errs <- err
						return
					}
					futures = append(futures, fu)
				}
				for k, fu := range futures {
					res, err := fu.Wait(5 * time.Second)
					if err != nil {
						errs <- fmt.Errorf("sender %d window %d/%d: %w", g, i, k, err)
						return
					}
					if res.Code != wire.OK {
						errs <- fmt.Errorf("sender %d window %d/%d: %v", g, i, k, res.Err())
						return
					}
				}
			}
		}(g)
	}

	// The migration driver, interleaved with the storm.
	drainCaller := clientOn(cliNode, hostL)
	drainCaller.Timeout = 5 * time.Second

	// Cycle 1: park, let frames pile up, abort. The parked frames must
	// replay locally in order.
	time.Sleep(5 * time.Millisecond)
	if err := src.Park(objL, hostL); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	src.Unpark(objL)

	// Cycle 2: the commit path. Park, drain via the exempt identity
	// (serializes behind accepted work), ship state, kill, forward.
	time.Sleep(10 * time.Millisecond)
	if err := src.Park(objL, hostL); err != nil {
		t.Fatal(err)
	}
	res, err := drainCaller.CallAddrCtx(context.Background(), src.Address(), objL, "SaveState")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if res.Code != wire.OK {
		t.Fatalf("drain: %v", res.Err())
	}
	state, err := res.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	impl2 := &seqImpl{}
	if err := impl2.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Spawn(objL, impl2); err != nil {
		t.Fatal(err)
	}
	src.Kill(objL)
	src.ForwardParked(objL, dst.Element())

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !src.DropTombstone(objL) {
		t.Error("no forwarding tombstone to drop after commit")
	}

	// Exactly one incarnation, holding the complete FIFO history.
	if _, ok := src.Lookup(objL); ok {
		t.Error("source still runs the object after commit")
	}
	if _, ok := dst.Lookup(objL); !ok {
		t.Fatal("destination does not run the object")
	}
	last, total := impl2.snapshot()
	if want := uint64(senders * windows * pipeline); total != want {
		t.Errorf("total = %d, want %d (calls lost or duplicated)", total, want)
	}
	for g := 0; g < senders; g++ {
		if last[uint64(g)] != uint64(windows*pipeline) {
			t.Errorf("sender %d final seq = %d, want %d", g, last[uint64(g)], windows*pipeline)
		}
	}

	cliNode.Close()
	dst.Close()
	src.Close()
	if !buf.Tracking {
		return
	}
	deadline := time.Now().Add(2 * time.Second)
	for buf.Live() > live0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := buf.Live(); n > live0 {
		t.Errorf("%d buffers still live after storm:\n%s", n-live0, joinStacks(buf.LiveStacks()))
	}
}
