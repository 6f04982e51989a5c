package rt

import (
	"context"
	"testing"
	"time"

	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/oa"
	"repro/internal/wire"
)

// TestDeliverVerdictReflectsLastWave is the regression test for a
// failover-bookkeeping bug: deliver carried the retryable Result of an
// earlier wave into later waves, so when wave 1 answered "no such
// object" and wave 2 then timed out without answering, the caller was
// told ErrNoSuchObject (binding definitively stale) instead of
// ErrUnavailable (replica unresponsive — retransmission may succeed).
// The verdict must describe the LAST wave attempted.
func TestDeliverVerdictReflectsLastWave(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)

	// Wave 1 target: a live node that does NOT host the object, so it
	// answers ErrNoSuchObject quickly.
	// Wave 2 target: hosts the object, but the method blocks past the
	// caller's timeout, so the wave ends with no reply at all.
	block := make(chan struct{})
	defer close(block)
	stuck := loid.NewNoKey(256, 77)
	impl := &Behavior{
		Iface: idl.NewInterface("Stuck", idl.MethodSig{Name: "Hang"}),
		Handlers: map[string]Handler{
			"Hang": func(inv *Invocation) ([][]byte, error) { <-block; return nil, nil },
		},
	}
	if _, err := nodes[1].Spawn(stuck, impl); err != nil {
		t.Fatal(err)
	}

	addr := oa.Replicated(oa.SemOrdered, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	c.Timeout = 100 * time.Millisecond

	res, err := c.CallAddrCtx(context.Background(), addr, stuck, "Hang")
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != wire.ErrUnavailable {
		t.Errorf("verdict Code = %v, want ErrUnavailable (wave 2 timed out); a wave-1 ErrNoSuchObject must not be the verdict", res.Code)
	}
	if res.Code == wire.ErrUnavailable && res.ErrText != ErrTimeout.Error() {
		t.Errorf("verdict ErrText = %q, want timeout", res.ErrText)
	}
}

// TestDeliverDefinitiveReplyBeatsLaterWaves pins the companion
// property: a definitive (non-retryable) reply in an early wave returns
// immediately and later waves are never contacted.
func TestDeliverDefinitiveReplyBeatsLaterWaves(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	impl := spawnEcho(t, nodes[0], echoLOID)
	addr := oa.Replicated(oa.SemOrdered, 0, nodes[0].Element(), nodes[1].Element())
	c := clientOn(nodes[2], clientLOID)
	res, err := c.CallAddrCtx(context.Background(), addr, echoLOID, "Echo", []byte("hi"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call: %v %v", res, err)
	}
	impl.mu.Lock()
	calls := impl.calls
	impl.mu.Unlock()
	if calls != 1 {
		t.Errorf("echo served %d calls, want 1", calls)
	}
}
