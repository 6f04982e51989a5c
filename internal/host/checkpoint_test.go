package host

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/persist"
	"repro/internal/rt"
)

// filings stands in for the Magistrate's CheckpointBatch: it counts
// how often each object's snapshot is filed.
type filings struct {
	mu sync.Mutex
	n  map[loid.LOID]int
}

var filingServer = rt.NewServer("Magistrate",
	rt.Serve2(CheckpointBatch, func(f *filings, _ context.Context, _ loid.LOID, batch []byte) (uint64, error) {
		oprs, err := persist.DecodeOPRBatch(batch)
		if err != nil {
			return 0, err
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, o := range oprs {
			f.n[o.LOID.ID()]++
		}
		return uint64(len(oprs)), nil
	}))

// TestCheckpointRoundHeldBySave pins what bounds a checkpoint round.
// The round saves each resident with a same-process call that carries
// no deadline, so the call is served on the round's own goroutine and
// is bounded by the resident's SaveState, not by Caller.Timeout. A
// Save that blocks therefore holds the round: a concurrent
// CheckpointNow waits for it well past the wave timeout, and once the
// Save is released both return and the object is filed exactly once.
func TestCheckpointRoundHeldBySave(t *testing.T) {
	fx := newHostFixture(t)
	entered, release := make(chan struct{}), make(chan struct{})
	enter, unblock := sync.OnceFunc(func() { close(entered) }), sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)
	fx.host.impls.MustRegister("blocking", func() rt.Impl {
		return &rt.Behavior{
			Iface: idl.NewInterface("Blocking"),
			Save: func() ([]byte, error) {
				enter()
				<-release
				return []byte("state"), nil
			},
		}
	})
	if _, err := fx.client.StartObject(objL, "blocking", nil); err != nil {
		t.Fatal(err)
	}

	magNode, err := rt.NewNode(fx.fabric, nil, "mag")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { magNode.Close() })
	magL := loid.NewNoKey(loid.ClassIDMagistrate, 1)
	filed := &filings{n: map[loid.LOID]int{}}
	if _, err := magNode.Spawn(magL, filingServer.Impl(filed, nil, nil)); err != nil {
		t.Fatal(err)
	}
	fx.host.StartCheckpointer(magL, magNode.Address(), time.Hour)
	t.Cleanup(fx.host.StopCheckpointer)
	const wave = 20 * time.Millisecond
	fx.host.obj.Caller().Timeout = wave

	type round struct {
		saved int
		err   error
	}
	checkpoint := func() <-chan round {
		done := make(chan round, 1)
		go func() {
			n, err := fx.host.CheckpointNow()
			done <- round{n, err}
		}()
		return done
	}
	first := checkpoint()
	select {
	case <-entered:
	case r := <-first:
		t.Fatalf("round returned %+v without saving the resident", r)
	}
	second := checkpoint()
	select {
	case r := <-first:
		t.Fatalf("the round holding a blocked Save returned %+v", r)
	case r := <-second:
		t.Fatalf("a concurrent round returned %+v while another held the round", r)
	case <-time.After(10 * wave):
	}
	unblock()
	if r := <-first; r.err != nil || r.saved != 1 {
		t.Errorf("first round = %+v, want 1 saved", r)
	}
	if r := <-second; r.err != nil || r.saved != 0 {
		t.Errorf("second round = %+v, want 0 saved: the object was idle", r)
	}
	filed.mu.Lock()
	defer filed.mu.Unlock()
	if n := filed.n[objL.ID()]; n != 1 || len(filed.n) != 1 {
		t.Errorf("filings = %v, want %v filed once", filed.n, objL)
	}
}
