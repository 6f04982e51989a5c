package core

import (
	"context"
	"encoding/hex"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/bindagent"
	"repro/internal/binding"
	"repro/internal/buf"
	"repro/internal/class"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/naming"
	"repro/internal/oa"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frameRecorder is a bare endpoint standing in for every core object:
// it keeps the raw bytes of each frame it receives and answers each
// request with an application error, so a client call returns at once.
type frameRecorder struct {
	ep     transport.Endpoint
	mu     sync.Mutex
	frames [][]byte
}

func newFrameRecorder(t *testing.T, f *transport.Fabric) *frameRecorder {
	t.Helper()
	ep, err := f.NewEndpoint()
	if err != nil {
		t.Fatal(err)
	}
	r := &frameRecorder{ep: ep}
	ep.SetFrameHandler(func(_ *buf.Buffer, data []byte, _ bool) {
		raw := append([]byte(nil), data...)
		r.mu.Lock()
		r.frames = append(r.frames, raw)
		r.mu.Unlock()
		var fr wire.Frame
		if fr.Parse(raw) != nil || fr.Kind != wire.KindRequest {
			return
		}
		reply := buf.Get()
		reply.B = wire.AppendReply(reply.B, fr.ID, fr.EnvCalling(), wire.ErrApp, "recorded", nil, oa.Address{})
		to := fr.ReplyToElem(0)
		go func() {
			ep.SendBuf(to, reply)
			reply.Release()
		}()
	})
	return r
}

// take returns the one frame received since the last take, with its
// correlation id zeroed (ids count calls, not content).
func (r *frameRecorder) take(t *testing.T, name string) []byte {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.frames) != 1 {
		t.Fatalf("%s: recorded %d frames, want 1", name, len(r.frames))
	}
	raw := r.frames[0]
	r.frames = nil
	for i := 4; i < 12; i++ {
		raw[i] = 0
	}
	return raw
}

// goldenCall issues one call of a core method at the recorder: to
// names the target through the test's caller, at its address at.
type goldenCall struct {
	name string
	call func(ctx context.Context, to, at rt.Ref)
}

var (
	gObj   = loid.New(1000, 7, loid.DeriveKey("golden/object"))
	gOther = loid.New(1001, 3, loid.DeriveKey("golden/other"))
	gHost  = loid.New(loid.ClassIDLegionHost, 9, loid.DeriveKey("golden/host"))
	gClass = loid.New(1002, 0, loid.DeriveKey("golden/class"))
	gAddr  = oa.Single(oa.MemElement(42))
	gBind  = binding.Forever(gObj, gAddr)
	gState = []byte("golden state")
	gOPRs  = []persist.OPR{{LOID: gObj, Impl: "golden.impl", State: gState}}
	gIfc   = idl.NewInterface("Golden",
		idl.MethodSig{Name: "Ping", Returns: []idl.Param{{Name: "n", Type: idl.TUint64}}})
)

// goldenCalls issues one call to each core remote method, with fixed
// arguments. The frames were recorded from the hand-written clients
// the descriptors replaced.
func goldenCalls() []goldenCall {
	type r = rt.Ref
	return []goldenCall{
		{"magistrate.AddHost", func(ctx context.Context, to, _ r) { magistrate.AddHost.Call(ctx, to, gHost, gAddr) }},
		{"magistrate.RemoveHost", func(ctx context.Context, to, _ r) { magistrate.RemoveHost.Call(ctx, to, gHost) }},
		{"magistrate.ListHosts", func(ctx context.Context, to, _ r) { magistrate.ListHosts.Call(ctx, to) }},
		{"magistrate.Register", func(ctx context.Context, to, _ r) { magistrate.Register.Call(ctx, to, gObj, "golden.impl", gState) }},
		{"magistrate.Activate", func(ctx context.Context, to, _ r) { magistrate.Activate.Call(ctx, to, gObj, gHost) }},
		{"magistrate.Instantiate", func(ctx context.Context, to, _ r) {
			magistrate.Instantiate.Call(ctx, to, []magistrate.Instance{{Object: gObj, Impl: "golden.impl", State: gState, HostHint: gHost}})
		}},
		{"magistrate.Deactivate", func(ctx context.Context, to, _ r) { magistrate.Deactivate.Call(ctx, to, gObj) }},
		{"magistrate.Delete", func(ctx context.Context, to, _ r) { magistrate.Delete.Call(ctx, to, gObj) }},
		{"magistrate.Copy", func(ctx context.Context, to, _ r) { magistrate.Copy.Call(ctx, to, gObj, gOther) }},
		{"magistrate.Move", func(ctx context.Context, to, _ r) { magistrate.Move.Call(ctx, to, gObj, gOther) }},
		{"magistrate.ReceiveOPR", func(ctx context.Context, to, _ r) { magistrate.ReceiveOPR.Call(ctx, to, gObj, "golden.impl", gState) }},
		{"magistrate.CheckpointBatch", func(ctx context.Context, _, at r) { host.CheckpointBatch.Call(ctx, at, gHost, gOPRs) }},
		{"magistrate.GetBinding", func(ctx context.Context, to, _ r) { magistrate.GetBinding.Call(ctx, to, gObj) }},
		{"magistrate.HasObject", func(ctx context.Context, to, _ r) { magistrate.HasObject.Call(ctx, to, gObj) }},
		{"magistrate.ListObjects", func(ctx context.Context, to, _ r) { magistrate.ListObjects.Call(ctx, to) }},
		{"magistrate.MigrateObject", func(ctx context.Context, to, _ r) { magistrate.MigrateObject.Call(ctx, to, gObj, gHost) }},
		{"magistrate.ReportLoad", func(ctx context.Context, _, at r) { host.ReportLoad.Call(ctx, at, gHost, host.Load{Residents: 3}, nil) }},
		{"magistrate.ReportLoad+telemetry", func(ctx context.Context, _, at r) {
			host.ReportLoad.Call(ctx, at, gHost, host.Load{Residents: 3}, []byte("golden telemetry"))
		}},
		{"magistrate.GetLoads", func(ctx context.Context, to, _ r) { magistrate.GetLoads.Call(ctx, to) }},
		{"magistrate.MoveResidents", func(ctx context.Context, to, _ r) { magistrate.MoveResidents.Call(ctx, to, gHost, gOther, 3) }},
		{"magistrate.Query", func(ctx context.Context, to, _ r) { magistrate.Query.Call(ctx, to, "SELECT host FROM placements") }},
		{"magistrate.AddSubMagistrate", func(ctx context.Context, to, _ r) { magistrate.AddSubMagistrate.Call(ctx, to, gOther, gAddr) }},
		{"magistrate.RemoveSubMagistrate", func(ctx context.Context, to, _ r) { magistrate.RemoveSubMagistrate.Call(ctx, to, gOther) }},
		{"magistrate.ListSubMagistrates", func(ctx context.Context, to, _ r) { magistrate.ListSubMagistrates.Call(ctx, to) }},

		{"class.Create", func(ctx context.Context, to, _ r) { class.Create.Call(ctx, to, gState, gOther, gHost) }},
		{"class.CreateSet", func(ctx context.Context, to, _ r) {
			class.CreateSet.Call(ctx, to, class.NewSet{Count: 3, InitState: gState, MagistrateHint: gOther, HostHint: gHost})
		}},
		{"class.Derive", func(ctx context.Context, to, _ r) {
			class.Derive.Call(ctx, to, class.Subclass{Name: "GoldenSub", Impl: "golden.impl", Interface: gIfc, Flags: class.FlagFixed, MagistrateHint: gOther})
		}},
		{"class.Derive/inherit", func(ctx context.Context, to, _ r) { class.Derive.Call(ctx, to, class.Subclass{Name: "GoldenSub"}) }},
		{"class.InheritFrom", func(ctx context.Context, to, _ r) { class.InheritFrom.Call(ctx, to, gClass) }},
		{"class.Delete", func(ctx context.Context, to, _ r) { class.Delete.Call(ctx, to, gObj) }},
		{"class.GetBinding", func(ctx context.Context, to, _ r) { class.GetBinding.Call(ctx, to, gObj) }},
		{"class.RefreshBinding", func(ctx context.Context, to, _ r) { class.RefreshBinding.Call(ctx, to, gBind) }},
		{"class.GetInstanceInterface", func(ctx context.Context, to, _ r) { class.GetInstanceInterface.Call(ctx, to) }},
		{"class.DescribeInstances", func(ctx context.Context, to, _ r) { class.DescribeInstances.Call(ctx, to) }},
		{"class.Info", func(ctx context.Context, to, _ r) { class.Info.Call(ctx, to) }},
		{"class.RegisterInstance", func(ctx context.Context, to, _ r) { class.RegisterInstance.Call(ctx, to, gObj, gAddr) }},
		{"class.NotifyAddress", func(ctx context.Context, to, _ r) { magistrate.NotifyAddress.Call(ctx, to, []binding.Binding{gBind}) }},
		{"class.NotifyDeactivated", func(ctx context.Context, to, _ r) { class.NotifyDeactivated.Call(ctx, to, gObj) }},
		{"class.Clone", func(ctx context.Context, to, _ r) { class.Clone.Call(ctx, to, gOther) }},
		{"class.GetRow", func(ctx context.Context, to, _ r) { class.GetRow.Call(ctx, to, gObj) }},
		{"class.SetSchedulingAgent", func(ctx context.Context, to, _ r) { class.SetSchedulingAgent.Call(ctx, to, gObj, gOther) }},
		{"class.SetCandidateMagistrates", func(ctx context.Context, to, _ r) {
			class.SetCandidateMagistrates.Call(ctx, to, gObj, []loid.LOID{gOther, gHost})
		}},
		{"class.SetCurrentMagistrates", func(ctx context.Context, to, _ r) {
			class.SetCurrentMagistrates.Call(ctx, to, gObj, []loid.LOID{gOther})
		}},
		{"class.SetDefaultMagistrates", func(ctx context.Context, to, _ r) {
			class.SetDefaultMagistrates.Call(ctx, to, []loid.LOID{gOther, gHost})
		}},
		{"class.SetDefaultSchedulingAgent", func(ctx context.Context, to, _ r) { class.SetDefaultSchedulingAgent.Call(ctx, to, gOther) }},
		{"class.SubscribeAgent", func(ctx context.Context, to, _ r) { class.SubscribeAgent.Call(ctx, to, gOther, gAddr) }},
		{"class.UnsubscribeAgent", func(ctx context.Context, to, _ r) { class.UnsubscribeAgent.Call(ctx, to, gOther) }},
		{"class.NewClassID", func(ctx context.Context, to, _ r) {
			class.NewClassID.Call(ctx, to.C.To(loid.LegionClass), gClass, "GoldenSub")
		}},
		{"class.WhoIsResponsible", func(ctx context.Context, to, _ r) {
			class.WhoIsResponsible.Call(ctx, to.C.To(loid.LegionClass), gClass)
		}},
		{"class.LocateClass", func(ctx context.Context, to, _ r) { class.LocateClass.Call(ctx, to.C.To(loid.LegionClass), gClass) }},
		{"class.RegisterClassBinding", func(ctx context.Context, to, _ r) {
			class.RegisterClassBinding.Call(ctx, to.C.To(loid.LegionClass), gClass, gAddr)
		}},

		{"host.StartObjects", func(ctx context.Context, to, _ r) { host.StartObjects.Call(ctx, to, gOPRs) }},
		{"host.StopObject", func(ctx context.Context, to, _ r) { host.StopObject.Call(ctx, to, gObj) }},
		{"host.GetState", func(ctx context.Context, to, _ r) { host.GetState.Call(ctx, to) }},
		{"host.SetCPULoad", func(ctx context.Context, to, _ r) { host.SetCPULoad.Call(ctx, to, 3) }},
		{"host.SetMemoryUsage", func(ctx context.Context, to, _ r) { host.SetMemoryUsage.Call(ctx, to, 4<<20) }},
		{"host.GetLoad", func(ctx context.Context, to, _ r) { host.GetLoad.Call(ctx, to) }},
		{"host.DrainObjects", func(ctx context.Context, to, _ r) { host.DrainObjects.Call(ctx, to, []loid.LOID{gObj}) }},
		{"host.EvictObjects", func(ctx context.Context, to, _ r) { host.EvictObjects.Call(ctx, to, []loid.LOID{gObj}, gAddr) }},
		{"host.EvictObjects/no-address", func(ctx context.Context, to, _ r) {
			host.EvictObjects.Call(ctx, to, []loid.LOID{gObj}, oa.Address{})
		}},
		{"host.ReopenObjects", func(ctx context.Context, to, _ r) { host.ReopenObjects.Call(ctx, to, []loid.LOID{gObj}) }},

		{"bindagent.GetBinding", func(ctx context.Context, _, at r) { bindagent.GetBinding.Call(ctx, at, gObj) }},
		{"bindagent.RebindStale", func(ctx context.Context, _, at r) { bindagent.RebindStale.Call(ctx, at, gBind) }},
		{"bindagent.AddBinding", func(ctx context.Context, _, at r) { class.AddBinding.Call(ctx, at, []binding.Binding{gBind}) }},
		{"bindagent.AddBinding/oneway", func(_ context.Context, _, at r) { class.AddBinding.Send(at, []binding.Binding{gBind}) }},
		{"bindagent.InvalidateLOID", func(ctx context.Context, _, at r) { class.InvalidateLOID.Call(ctx, at, []loid.LOID{gObj}) }},
		{"bindagent.InvalidateLOID/oneway", func(_ context.Context, _, at r) { class.InvalidateLOID.Send(at, []loid.LOID{gObj}) }},
		{"bindagent.InvalidateBinding", func(ctx context.Context, _, at r) { bindagent.InvalidateBinding.Call(ctx, at, gBind) }},
		{"bindagent.CacheStats", func(ctx context.Context, _, at r) { bindagent.CacheStats.Call(ctx, at) }},

		{"naming.BindName", func(ctx context.Context, to, _ r) { naming.BindName.Call(ctx, to, "golden/name", gObj, true) }},
		{"naming.LookupName", func(ctx context.Context, to, _ r) { naming.LookupName.Call(ctx, to, "golden/name") }},
		{"naming.UnbindName", func(ctx context.Context, to, _ r) { naming.UnbindName.Call(ctx, to, "golden/name") }},
		{"naming.ListNames", func(ctx context.Context, to, _ r) { naming.ListNames.Call(ctx, to, "golden") }},
		{"naming.CountNames", func(ctx context.Context, to, _ r) { naming.CountNames.Call(ctx, to) }},

		{"sched.PickHost", func(ctx context.Context, to, _ r) { sched.PickHost.Call(ctx, to, []loid.LOID{gHost, gOther}) }},
		{"sched.PolicyName", func(ctx context.Context, to, _ r) { sched.PolicyName.Call(ctx, to) }},
	}
}

// TestCoreRequestFramesGolden pins the request frame of every core
// remote method, byte for byte: however a method is declared and its
// client written, what it puts on the wire must not move.
func TestCoreRequestFramesGolden(t *testing.T) {
	f := transport.NewFabric(nil)
	defer f.Close()
	rec := newFrameRecorder(t, f)
	node, err := rt.NewNode(f, nil, "golden-client")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c := rt.NewCaller(node, loid.NewNoKey(299, 1), nil)
	at := oa.Single(rec.ep.Element())
	to := loid.New(1003, 1, loid.DeriveKey("golden/target"))
	c.AddBinding(binding.Forever(to, at))
	c.AddBinding(binding.Forever(loid.LegionClass, at))

	var got strings.Builder
	for _, gc := range goldenCalls() {
		gc.call(context.Background(), c.To(to), c.At(at, to))
		got.WriteString(gc.name + " " + hex.EncodeToString(rec.take(t, gc.name)) + "\n")
	}
	checkGolden(t, "testdata/rpc_frames.golden", got.String())
}

// TestCoreInterfacesGolden pins the IDL text of every core interface.
func TestCoreInterfacesGolden(t *testing.T) {
	var got strings.Builder
	for _, in := range []*idl.Interface{
		magistrate.Interface, class.Interface, class.MetaInterface, host.Interface,
		bindagent.Interface, naming.Interface, sched.Interface,
	} {
		got.WriteString(in.Format())
	}
	checkGolden(t, "testdata/rpc_interfaces.golden", got.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}
