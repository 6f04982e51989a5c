package rt

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/binding"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestServeRecordHygiene: a served call's Invocation, argument views and
// context come from a pooled record that is zeroed when the call is
// done, so a later call on the same object starts clean — after a traced
// call with a deadline and arguments, and after one that panics — while
// a nested call made through inv.Ctx() still inherits the deadline. Run
// it under -race.
func TestServeRecordHygiene(t *testing.T) {
	_, nodes := newTestFabricNodes(t, 2)
	srv, cli := nodes[0], nodes[1]
	tr := trace.New(trace.Config{SampleEvery: 1})
	srv.SetTracer(tr)

	// What the handler was lent, and what it saw during the call: a copy
	// of the Invocation, its arguments, and the deadline and trace of
	// the context Ctx returned.
	var (
		lent     *Invocation
		copied   Invocation
		args     []string
		ctxDL    time.Time
		ctxTrace trace.SpanContext
	)
	look := func(inv *Invocation) ([][]byte, error) {
		lent, copied = inv, *inv
		args = args[:0]
		for _, a := range inv.Args {
			args = append(args, string(a))
		}
		ctxDL, _ = inv.Ctx().Deadline()
		ctxTrace = trace.FromContext(inv.Ctx())
		return nil, nil
	}
	// Look's object is concurrent, so Relay's nested call below takes the
	// co-resident bypass. A framed call is served on a dispatch goroutine
	// that releases the record after the reply is out: invoke waits for
	// the object's mailbox to have no drainer before the test reads lent.
	target := loid.NewNoKey(256, 71)
	o, err := srv.Spawn(target, &Behavior{
		Iface: idl.NewInterface("Hygiene", idl.MethodSig{Name: "Look"}, idl.MethodSig{Name: "Boom"}),
		Handlers: map[string]Handler{
			"Look": look,
			"Boom": func(inv *Invocation) ([][]byte, error) {
				lent = inv
				panic("boom")
			},
		},
	}, WithConcurrency(2))
	if err != nil {
		t.Fatal(err)
	}
	c := clientOn(cli, clientLOID)
	c.AddBinding(binding.Forever(target, srv.Address()))

	deadline := time.Now().Add(time.Minute).Round(0)
	root := tr.Root("call", "Look", "test-client")
	traced := invCtx{t: deadline, sc: root.Context()}
	// Invoke, not Call: a client without a tracer opens no call span, and
	// InvokeCtx sends the context's trace identity as it is.
	invoke := func(ctx context.Context, method string, args ...[]byte) *Result {
		t.Helper()
		fu, err := c.InvokeCtx(ctx, target, method, args...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := fu.Wait(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the serve released its record", func() bool {
			o.mailbox.mu.Lock()
			defer o.mailbox.mu.Unlock()
			return o.mailbox.running == 0
		})
		return res
	}
	zeroed := func(when string) {
		t.Helper()
		if !reflect.ValueOf(*lent).IsZero() {
			t.Errorf("%s: the lent Invocation was not zeroed: %+v", when, *lent)
		}
	}

	if res := invoke(traced, "Look", []byte("a"), []byte("bc")); res.Code != wire.OK {
		t.Fatalf("traced call: %v", res.Err())
	}
	if copied.Span == nil || copied.Trace.TraceID != root.Context().TraceID ||
		!copied.Deadline.Equal(deadline) || len(args) != 2 || args[1] != "bc" {
		t.Fatalf("traced call lent %+v with arguments %q", copied, args)
	}
	if !ctxDL.Equal(deadline) || ctxTrace.TraceID != root.Context().TraceID {
		t.Fatalf("traced call's Ctx: deadline %v, trace %+v", ctxDL, ctxTrace)
	}
	zeroed("after a traced call")
	first := lent

	if res := invoke(context.Background(), "Look"); res.Code != wire.OK {
		t.Fatalf("untraced call: %v", res.Err())
	}
	if copied.Span != nil || copied.Trace != (trace.SpanContext{}) || !copied.Deadline.IsZero() || copied.Args != nil {
		t.Errorf("untraced call after a traced one lent %+v", copied)
	}
	if !ctxDL.IsZero() || ctxTrace.Valid() {
		t.Errorf("untraced call's Ctx carries deadline %v, trace %+v", ctxDL, ctxTrace)
	}
	t.Logf("second call reused the first call's record: %v", lent == first)

	// A panicking Dispatch still zeroes its record and gives it back: the
	// next call gets it. sync.Pool promises no reuse (it drops a quarter
	// of Puts under -race), so try until one attempt shows it.
	reused := false
	for attempt := 0; attempt < 50 && !reused; attempt++ {
		if res := invoke(traced, "Boom", []byte("a")); res.Code != wire.ErrApp {
			t.Fatalf("panicking call answered %v, want %v", res.Code, wire.ErrApp)
		}
		zeroed("after a panic")
		boom := lent
		invoke(context.Background(), "Look")
		reused = lent == boom
		if copied.Span != nil || !copied.Deadline.IsZero() || copied.Args != nil {
			t.Fatalf("call after a panic lent %+v", copied)
		}
	}
	if !reused {
		t.Error("a panicking call's record never came back to the pool")
	}

	// A nested call through inv.Ctx() inherits the deadline: Relay (its
	// own mailbox) calls Look on the same node, which takes the
	// co-resident bypass, so two records are out at once and the inner
	// one is released first.
	relay := loid.NewNoKey(256, 72)
	var outer Invocation
	var outerArg string
	ro, err := srv.Spawn(relay, &Behavior{
		Iface: idl.NewInterface("Relay", idl.MethodSig{Name: "Relay"}),
		Handlers: map[string]Handler{
			"Relay": func(inv *Invocation) ([][]byte, error) {
				res, err := inv.Obj.Caller().CallCtx(inv.Ctx(), target, "Look")
				if err != nil {
					return nil, err
				}
				outer, outerArg = *inv, string(inv.Args[0]) // still intact after the inner call
				return nil, res.Err()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ro.Caller().AddBinding(binding.Forever(target, srv.Address()))
	c.AddBinding(binding.Forever(relay, srv.Address()))
	fu, err := c.InvokeCtx(invCtx{t: deadline}, relay, "Relay", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := fu.Wait(time.Second); err != nil || res.Code != wire.OK {
		t.Fatalf("relay: %v %v", res, err)
	}
	if !copied.Deadline.Equal(deadline) {
		t.Errorf("nested hop's deadline = %v, want the caller's %v", copied.Deadline, deadline)
	}
	if !outer.Deadline.Equal(deadline) || outerArg != "x" {
		t.Errorf("the outer Invocation changed under a nested call: %+v, argument %q", outer, outerArg)
	}
}

// TestBlockingMethodFreesReadLoop: a method that blocks holds only its
// own goroutine, never the read loop of the connection its request came
// in on. Over one client connection between two TCP values, X's Block
// waits on a channel, and a call to Y sent after it must still be
// answered within its 500 ms deadline. X passes WithInlineDispatch,
// which once ran a request on the read loop and now changes nothing.
// CI runs it at -race -count 20 -cpu 1,2,4,8.
func TestBlockingMethodFreesReadLoop(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := ownTCP(reg)
	srv, err := NewNode(tr(), nil, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewNode(tr(), nil, "cli")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free() // before the nodes close

	x, y := loid.NewNoKey(505, 2), echoLOID
	if _, err := srv.Spawn(x, &Behavior{
		Iface: idl.NewInterface("Held", idl.MethodSig{Name: "Block"}),
		Handlers: map[string]Handler{
			"Block": func(*Invocation) ([][]byte, error) {
				entered <- struct{}{}
				<-release
				return nil, nil
			},
		},
	}, WithInlineDispatch()); err != nil {
		t.Fatal(err)
	}
	spawnEcho(t, srv, y)
	c := clientOn(cli, clientLOID)
	c.AddBinding(binding.Forever(x, srv.Address()))
	c.AddBinding(binding.Forever(y, srv.Address()))

	fu, err := c.InvokeCtx(context.Background(), x, "Block")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("Block never ran")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := c.CallCtx(ctx, y, "Echo", []byte("y"))
	if err != nil || res.Code != wire.OK {
		t.Fatalf("Y behind a blocked X answered %v %v: the blocking method holds the read loop", res, err)
	}
	free()
	if res, err := fu.Wait(5 * time.Second); err != nil || res.Code != wire.OK {
		t.Fatalf("Block: %v %v", res, err)
	}
	wantDials(t, reg)
}
