package core

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bindagent"
	"repro/internal/buf"
	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/implreg"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/naming"
	"repro/internal/oa"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// callCtx is the context a test call carries: a deadline far enough
// out never to fire, and a trace identity of its own. No clock decides
// anything: the tests compare the values the callees see.
func callCtx(t *testing.T, traceID uint64) (context.Context, time.Time) {
	dl := time.Unix(0, time.Now().Add(time.Hour).UnixNano())
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	t.Cleanup(cancel)
	return trace.NewContext(ctx, trace.SpanContext{TraceID: traceID, SpanID: 1}), dl
}

// TestCreateCarriesDeadlineToSchedulingAgent: a Create issued with a
// deadline and a trace consults the class's Scheduling Agent within
// both. The agent here is a fake that records what PickHost sees.
func TestCreateCarriesDeadlineToSchedulingAgent(t *testing.T) {
	var (
		mu       sync.Mutex
		deadline time.Time
		traced   trace.SpanContext
		picks    int
	)
	impls := implreg.NewRegistry()
	impls.MustRegister("test.recording-sched", func() rt.Impl {
		return &rt.Behavior{
			Iface: sched.Interface,
			Handlers: map[string]rt.Handler{
				"PickHost": func(inv *rt.Invocation) ([][]byte, error) {
					mu.Lock()
					deadline, traced = inv.Deadline, inv.Trace
					picks++
					mu.Unlock()
					cs, err := wire.AsLOIDList(inv.Args[0])
					if err != nil {
						return nil, err
					}
					return [][]byte{wire.LOID(cs[0])}, nil
				},
			},
		}
	})
	sys := bootSys(t, Options{Impls: impls, HostsPerJurisdiction: 2, Tracer: trace.New(trace.Config{})})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := sys.NewSchedulingAgent("test.recording-sched")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := class.SetDefaultSchedulingAgent.Call(context.Background(), cl.Ref, agent); err != nil {
		t.Fatal(err)
	}
	ctx, dl := callCtx(t, 0x5eed)
	if _, err := class.Create.Call(ctx, cl.Ref, nil, loid.Nil, loid.Nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if picks != 1 {
		t.Fatalf("PickHost ran %d times, want 1", picks)
	}
	if !deadline.Equal(dl) {
		t.Errorf("PickHost saw deadline %v, want the Create's %v", deadline, dl)
	}
	if traced.TraceID != 0x5eed {
		t.Errorf("PickHost saw trace %#x, want the Create's 0x5eed", traced.TraceID)
	}
}

// frameTap wraps a transport and notes the method, deadline and trace
// of every request frame sent while it is on.
type frameTap struct {
	transport.Transport
	mu     sync.Mutex
	on     bool
	frames []tapped
}

type tapped struct {
	method   string
	deadline int64
	traceID  uint64
}

func (t *frameTap) NewEndpoint() (transport.Endpoint, error) {
	ep, err := t.Transport.NewEndpoint()
	return tapEndpoint{ep, t}, err
}

func (t *frameTap) note(data []byte) {
	var f wire.Frame
	if f.Parse(data) != nil || f.Kind != wire.KindRequest {
		return
	}
	t.mu.Lock()
	if t.on {
		t.frames = append(t.frames, tapped{string(f.MethodBytes()), f.Deadline(), f.TraceID()})
	}
	t.mu.Unlock()
}

// during runs call with the tap on and returns the frames it sent.
func (t *frameTap) during(call func()) []tapped {
	t.mu.Lock()
	t.on, t.frames = true, nil
	t.mu.Unlock()
	call()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
	return t.frames
}

type tapEndpoint struct {
	transport.Endpoint
	t *frameTap
}

func (e tapEndpoint) SendBuf(to oa.Element, b *buf.Buffer) error {
	e.t.note(b.B)
	return e.Endpoint.SendBuf(to, b)
}

// TestNestedCoreCallsCarryDeadlineAndTrace drives every handler that
// calls another core object — Create through a Scheduling Agent,
// Derive, InheritFrom, Delete, Deactivate, activation through the
// binding path, Copy and Move, migration, and delegation down a
// Magistrate hierarchy — each from a call with its own deadline and
// trace. Every request frame a call causes must carry both. The test
// then walks every core descriptor and requires the ones a handler
// issues to have been seen.
func TestNestedCoreCallsCarryDeadlineAndTrace(t *testing.T) {
	tap := &frameTap{Transport: transport.NewFabric(nil)}
	sys := bootSys(t, Options{Transport: tap, Jurisdictions: 2, HostsPerJurisdiction: 2,
		Tracer: trace.New(trace.Config{})})
	cl, _, err := sys.DeriveClass("Counter", "counter", counterInterface(), 0)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := sys.NewSchedulingAgent(SchedLeastLoadedImpl)
	if err != nil {
		t.Fatal(err)
	}
	user, err := sys.NewClient(loid.NewNoKey(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	boot := sys.BootClient()
	j0, j1 := sys.Jurisdictions[0], sys.Jurisdictions[1]
	mag0 := boot.To(j0.Magistrate)
	bg := context.Background()
	if _, err := class.SetDefaultMagistrates.Call(bg, cl.Ref, []loid.LOID{j0.Magistrate}); err != nil {
		t.Fatal(err)
	}
	if _, err := class.SetDefaultSchedulingAgent.Call(bg, cl.Ref, agent); err != nil {
		t.Fatal(err)
	}
	var objs []loid.LOID

	seen := map[string]bool{}
	traceID := uint64(0x100)
	step := func(name string, call func(ctx context.Context) error) {
		t.Helper()
		traceID++
		ctx, dl := callCtx(t, traceID)
		var err error
		for _, f := range tap.during(func() { err = call(ctx) }) {
			if f.deadline != dl.UnixNano() || f.traceID != traceID {
				t.Errorf("%s: %s sent with deadline %d trace %#x, want %d %#x",
					name, f.method, f.deadline, f.traceID, dl.UnixNano(), traceID)
			}
			seen[f.method] = true
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	create := func(ctx context.Context) error {
		made, err := class.Create.Call(ctx, cl.Ref, nil, loid.Nil, loid.Nil)
		objs = append(objs, made.LOID)
		return err
	}
	step("Create", create)
	step("Create", create)
	step("Create", create)
	step("Derive", func(ctx context.Context) error {
		_, err := class.Derive.Call(ctx, boot.To(loid.LegionObject), class.Subclass{Name: "Sub", Impl: "counter"})
		return err
	})
	step("InheritFrom", func(ctx context.Context) error {
		_, err := class.InheritFrom.Call(ctx, cl.Ref, loid.LegionObject)
		return err
	})
	step("Deactivate", func(ctx context.Context) error {
		_, err := magistrate.Deactivate.Call(ctx, mag0, objs[0])
		return err
	})
	step("call an inert object", func(ctx context.Context) error {
		res, err := user.CallCtx(ctx, objs[0], "Inc")
		if err == nil {
			err = res.Err()
		}
		return err
	})
	step("MigrateObject", func(ctx context.Context) error {
		var err error
		for _, p := range j0.MagistrateImpl().Placements() {
			if p.Object.SameObject(objs[0]) {
				dest := j0.Hosts[0]
				if p.Host.SameObject(dest) {
					dest = j0.Hosts[1]
				}
				_, err = magistrate.MigrateObject.Call(ctx, mag0, objs[0], dest)
			}
		}
		return err
	})
	step("Copy", func(ctx context.Context) error {
		_, err := magistrate.Copy.Call(ctx, mag0, objs[1], j1.Magistrate)
		return err
	})
	step("Move", func(ctx context.Context) error {
		_, err := magistrate.Move.Call(ctx, mag0, objs[2], j1.Magistrate)
		return err
	})
	if _, err := magistrate.AddSubMagistrate.Call(bg, mag0, j1.Magistrate, j1.MagistrateAddr); err != nil {
		t.Fatal(err)
	}
	step("delegated Activate", func(ctx context.Context) error {
		_, err := magistrate.Activate.Call(ctx, mag0, objs[2], loid.Nil)
		return err
	})
	step("delegated GetBinding", func(ctx context.Context) error {
		_, err := magistrate.GetBinding.Call(ctx, mag0, objs[2])
		return err
	})
	step("delegated Deactivate", func(ctx context.Context) error {
		_, err := magistrate.Deactivate.Call(ctx, mag0, objs[2])
		return err
	})
	step("delegated Delete", func(ctx context.Context) error {
		_, err := magistrate.Delete.Call(ctx, mag0, objs[2])
		return err
	})
	step("class Delete", func(ctx context.Context) error {
		_, err := class.Delete.Call(ctx, cl.Ref, objs[0])
		return err
	})

	// Every core method a handler issues must have been exercised.
	var all []string
	for _, in := range []*idl.Interface{
		magistrate.Interface, class.MetaInterface, host.Interface,
		bindagent.Interface, naming.Interface, sched.Interface,
	} {
		for _, m := range in.Methods() {
			all = append(all, m.Name)
		}
	}
	sort.Strings(all)
	issued := map[string]bool{}
	for _, name := range []string{
		// Create, Derive, activation and migration.
		"ListHosts", "PickHost", "GetLoad", "Instantiate", "NewClassID", "StartObjects",
		"DescribeInstances", "EvictObjects", "Activate", "GetBinding",
		"LocateClass", "DrainObjects", "NotifyAddress",
		// Copy, Move and the hierarchy.
		"ReceiveOPR", "HasObject", "Deactivate", "Delete",
	} {
		issued[name] = true
	}
	for _, name := range all {
		if issued[name] && !seen[name] {
			t.Errorf("%s is issued by a handler but no step exercised it", name)
		}
	}
}
