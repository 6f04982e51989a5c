package rt

import (
	"context"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestTraceSpansCrossHops: with a shared tracer at SampleEvery=1, one
// client call produces a client-side "call" span and a server-side
// "serve" span joined by the same trace id, with the binding-cache
// event on the call span — the §4.1 chain made visible.
func TestTraceSpansCrossHops(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	tr := trace.New(trace.Config{SampleEvery: 1})
	for _, n := range nodes {
		n.SetTracer(tr)
	}
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))

	res, err := c.Call(echoLOID, "Echo", []byte("hi"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("call: %v %v", res, err)
	}

	ids := tr.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("got %d traces, want 1 (ids %v)", len(ids), ids)
	}
	spans := tr.Trace(ids[0])
	var call, serve *trace.Span
	for _, s := range spans {
		switch s.Kind {
		case "call":
			call = s
		case "serve":
			serve = s
		}
	}
	if call == nil || serve == nil {
		t.Fatalf("trace missing a hop: %d spans %v", len(spans), spans)
	}
	if serve.Context().ParentSpanID != call.Context().SpanID {
		t.Errorf("serve span parent = %d, want the call span %d",
			serve.Context().ParentSpanID, call.Context().SpanID)
	}
	if call.Outcome != wire.OK.String() || serve.Outcome != wire.OK.String() {
		t.Errorf("outcomes = %q / %q, want %q on both", call.Outcome, serve.Outcome, wire.OK)
	}
	var sawCacheHit bool
	for _, e := range call.Events {
		if e.Name == "cache" && e.Msg == "hit" {
			sawCacheHit = true
		}
	}
	if !sawCacheHit {
		t.Errorf("call span has no cache-hit event: %+v", call.Events)
	}
}

// TestTraceNestedCallJoins: a proxy object making a nested call with
// inv.Ctx() parents the inner hop under its own serve span, so one
// trace spans three nodes.
func TestTraceNestedCallJoins(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 3)
	tr := trace.New(trace.Config{SampleEvery: 1})
	for _, n := range nodes {
		n.SetTracer(tr)
	}
	innerLOID := loid.NewNoKey(256, 61)
	proxyLOID := loid.NewNoKey(256, 62)
	spawnEcho(t, nodes[1], innerLOID)

	proxy := &Behavior{
		Iface: idl.NewInterface("Proxy", idl.MethodSig{Name: "Relay"}),
		Handlers: map[string]Handler{
			"Relay": func(inv *Invocation) ([][]byte, error) {
				res, err := inv.Obj.Caller().CallCtx(inv.Ctx(), innerLOID, "Echo", []byte("x"))
				if err != nil {
					return nil, err
				}
				return nil, res.Err()
			},
		},
	}
	po, err := nodes[0].Spawn(proxyLOID, proxy)
	if err != nil {
		t.Fatal(err)
	}
	po.Caller().AddBinding(binding.Forever(innerLOID, nodes[1].Address()))
	c := clientOn(nodes[2], clientLOID)
	c.AddBinding(binding.Forever(proxyLOID, nodes[0].Address()))

	res, err := c.Call(proxyLOID, "Relay")
	if err != nil || res.Code != wire.OK {
		t.Fatalf("relay: %v %v", res, err)
	}

	ids := tr.TraceIDs()
	if len(ids) != 1 {
		t.Fatalf("got %d traces, want 1 — the nested hop must join, not start fresh", len(ids))
	}
	spans := tr.Trace(ids[0])
	if len(spans) != 4 { // client call, proxy serve, proxy call, inner serve
		t.Fatalf("trace has %d spans, want 4:\n%s", len(spans), trace.Timeline(spans))
	}
}

// TestTraceDisabledZeroOverheadPath: with no tracer installed, calls
// work and no spans exist anywhere (nil-receiver discipline holds).
func TestTraceDisabledZeroOverheadPath(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	res, err := c.Call(echoLOID, "Echo", []byte("hi"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("untraced call failed: %v %v", res, err)
	}
	if nodes[1].Tracer() != nil {
		t.Fatal("test premise broken: node has a tracer")
	}
}

// TestTraceUnsampledRootNotRecorded: at a high sampling interval, an
// unsampled call leaves no spans, and the wire envelope carries no
// trace ids downstream.
func TestTraceUnsampledRootNotRecorded(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	tr := trace.New(trace.Config{SampleEvery: 1 << 30})
	for _, n := range nodes {
		n.SetTracer(tr)
	}
	spawnEcho(t, nodes[0], echoLOID)
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(echoLOID, nodes[0].Address()))
	for i := 0; i < 5; i++ {
		res, err := c.Call(echoLOID, "Echo", []byte("hi"))
		if err != nil || res.Code != wire.OK {
			t.Fatalf("call %d: %v %v", i, res, err)
		}
	}
	if spans := tr.Spans(); len(spans) != 0 {
		t.Errorf("unsampled calls recorded %d spans", len(spans))
	}
}

// TestTraceDeadlineRejectionEvent: a request expiring in the mailbox
// finishes its serve span with a deadline event, so the trace explains
// the ErrDeadlineExceeded the caller saw.
func TestTraceDeadlineRejectionEvent(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	tr := trace.New(trace.Config{SampleEvery: 1})
	for _, n := range nodes {
		n.SetTracer(tr)
	}
	block := make(chan struct{})
	busyLOID := loid.NewNoKey(256, 63)
	impl := &Behavior{
		Iface: idl.NewInterface("Busy", idl.MethodSig{Name: "Work"}),
		Handlers: map[string]Handler{
			"Work": func(inv *Invocation) ([][]byte, error) { <-block; return nil, nil },
		},
	}
	if _, err := nodes[0].Spawn(busyLOID, impl); err != nil {
		t.Fatal(err)
	}
	c := clientOn(nodes[1], clientLOID)
	c.AddBinding(binding.Forever(busyLOID, nodes[0].Address()))

	f1, err := c.InvokeCtx(context.Background(), busyLOID, "Work")
	if err != nil {
		t.Fatal(err)
	}
	// Invoke is the low-level API: it propagates a span from ctx but
	// does not open one, so root the trace explicitly.
	root := tr.Root("call", "Work", "test-client")
	ctx := invCtx{t: time.Now().Add(60 * time.Millisecond), sc: root.Context()}
	f2, err := c.InvokeCtx(ctx, busyLOID, "Work")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	close(block)
	if _, err := f2.Wait(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Wait(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	var sawDeadlineEvent bool
	for _, s := range tr.Spans() {
		if s.Kind != "serve" {
			continue
		}
		for _, e := range s.Events {
			if e.Name == "deadline" {
				sawDeadlineEvent = true
			}
		}
	}
	if !sawDeadlineEvent {
		t.Errorf("no serve span carries a deadline event:\n%s", trace.Timeline(tr.Spans()))
	}
}
