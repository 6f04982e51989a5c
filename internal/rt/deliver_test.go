package rt

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/health"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/oa"
	"repro/internal/transport"
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

// TestDeliverSingleDestination pins every outcome of a call to a
// one-element address — the shape every cached binding to an
// unreplicated object takes: the Result, the frames the fabric carried
// (requests and replies both) and what the health tracker was told.
func TestDeliverSingleDestination(t *testing.T) {
	type fixture struct {
		nodes  []*Node
		ht     *health.Tracker
		silent oa.Element // an endpoint that swallows every frame
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	spent, cancelSpent := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelSpent()
	local := func(f *fixture) oa.Element { return f.nodes[0].Element() }
	silent := func(f *fixture) oa.Element { return f.silent }
	for _, tc := range []struct {
		name string
		// setup prepares the row and returns the destination element.
		setup    func(t *testing.T, f *fixture) oa.Element
		ctx      context.Context
		code     wire.Code
		errText  string
		frames   uint64
		served   uint64 // calls node 0 served
		health   string // none, success, failure or open (left as opened)
		wantFrom bool   // the Result names its responder
	}{
		{name: "co-resident single worker takes the loopback", setup: func(t *testing.T, f *fixture) oa.Element {
			spawnEcho(t, f.nodes[0], echoLOID)
			return local(f)
		}, code: wire.OK, frames: 2, served: 1, health: "success", wantFrom: true},
		{name: "co-resident concurrent bypass", setup: func(t *testing.T, f *fixture) oa.Element {
			spawnEcho(t, f.nodes[0], echoLOID, WithConcurrency(4))
			return local(f)
		}, code: wire.OK, frames: 0, served: 1, health: "none", wantFrom: true},
		{name: "gated target takes the loopback", setup: func(t *testing.T, f *fixture) oa.Element {
			spawnEcho(t, f.nodes[0], echoLOID)
			// The caller is exempt, so the gate lets the frame through
			// to the object: the reply proves the bypass was skipped.
			if err := f.nodes[0].Park(echoLOID, clientLOID); err != nil {
				t.Fatal(err)
			}
			return local(f)
		}, code: wire.OK, frames: 2, served: 1, health: "success", wantFrom: true},
		{name: "stopped target takes the loopback", setup: func(t *testing.T, f *fixture) oa.Element {
			spawnEcho(t, f.nodes[0], echoLOID)
			o, _ := f.nodes[0].Lookup(echoLOID)
			o.stop() // stopped, not yet unregistered
			return local(f)
		}, code: wire.ErrNoSuchObject, errText: "object stopped", frames: 2, health: "success", wantFrom: true},
		{name: "breaker open", setup: func(t *testing.T, f *fixture) oa.Element {
			for i := 0; i < 3; i++ {
				f.ht.ReportFailure(f.silent)
			}
			return silent(f)
		}, code: wire.ErrUnavailable, errText: "all destinations circuit-open", frames: 0, health: "open"},
		{name: "deadline spent before send", setup: func(t *testing.T, f *fixture) oa.Element { return silent(f) },
			ctx: spent, code: wire.ErrDeadlineExceeded, errText: ErrTimeout.Error(), frames: 0, health: "none"},
		{name: "reply timeout", setup: func(t *testing.T, f *fixture) oa.Element { return silent(f) },
			code: wire.ErrUnavailable, errText: ErrTimeout.Error(), frames: 1, health: "failure"},
		{name: "context cancelled", setup: func(t *testing.T, f *fixture) oa.Element { return silent(f) },
			ctx: cancelled, code: wire.ErrDeadlineExceeded, errText: context.Canceled.Error(), frames: 1, health: "none"},
		{name: "synchronous reply", setup: func(t *testing.T, f *fixture) oa.Element {
			spawnEcho(t, f.nodes[1], echoLOID)
			return f.nodes[1].Element()
		}, code: wire.OK, frames: 2, health: "success", wantFrom: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			fab := transport.NewFabric(reg)
			t.Cleanup(func() { fab.Close() })
			f := &fixture{ht: health.NewTracker(health.Config{}, nil)}
			for i := 0; i < 2; i++ {
				n, err := NewNode(fab, nil, fmt.Sprintf("s%d", i))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				f.nodes = append(f.nodes, n)
			}
			ep, err := fab.NewEndpoint()
			if err != nil {
				t.Fatal(err)
			}
			ep.SetFrameHandler(func(*buf.Buffer, []byte, bool) {})
			f.silent = ep.Element()
			dest := tc.setup(t, f)

			c := clientOn(f.nodes[0], clientLOID)
			c.Timeout = 50 * time.Millisecond
			c.SetHealth(f.ht)
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			sent := reg.Counter("net/sent")
			before := sent.Value()
			res, err := c.CallAddrCtx(ctx, oa.Single(dest), echoLOID, "Echo", []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			if res.Code != tc.code || res.ErrText != tc.errText {
				t.Errorf("Result = %v %q, want %v %q", res.Code, res.ErrText, tc.code, tc.errText)
			}
			if got := sent.Value() - before; got != tc.frames {
				t.Errorf("fabric carried %d frames, want %d", got, tc.frames)
			}
			if got := f.nodes[0].Served(); got != tc.served {
				t.Errorf("node 0 served %d calls, want %d", got, tc.served)
			}
			if (res.From != oa.Element{}) != tc.wantFrom {
				t.Errorf("Result.From = %v, want set: %v", res.From, tc.wantFrom)
			}
			var got string
			switch snap := f.ht.Snapshot(); {
			case len(snap) == 0:
				got = "none"
			case len(snap) > 1 || snap[0].Element != dest:
				got = fmt.Sprintf("reports on %d endpoints", len(snap))
			case snap[0].State == health.Open && snap[0].Consecutive == 3:
				got = "open"
			case snap[0].Consecutive == 0:
				got = "success"
			case snap[0].Consecutive == 1:
				got = "failure"
			default:
				got = fmt.Sprintf("%d failures", snap[0].Consecutive)
			}
			if got != tc.health {
				t.Errorf("health reports: %s, want %s", got, tc.health)
			}
		})
	}
}
