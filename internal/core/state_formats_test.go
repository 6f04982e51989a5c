package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/class"
	"repro/internal/clock"
	"repro/internal/demo"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/metrics"
	"repro/internal/naming"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

// stateFormat is one byte string the core objects persist or reply
// with: its encoding built from fixed inputs, and a check that decodes
// it again (nil when the format has no exported decoder of its own).
type stateFormat struct {
	name  string
	bytes []byte
	check func(b []byte) error
}

var gTime = time.Unix(1700000000, 123456789)

func mustDispatch(t *testing.T, impl rt.Impl, method string, args ...[]byte) [][]byte {
	t.Helper()
	out, err := impl.Dispatch(&rt.Invocation{Method: method, Args: args})
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return out
}

func mustSave(t *testing.T, name string, impl rt.Impl) []byte {
	t.Helper()
	b, err := impl.SaveState()
	if err != nil {
		t.Fatalf("%s SaveState: %v", name, err)
	}
	return b
}

// resaves checks that fresh restores b and saves the same bytes.
func resaves(fresh func() rt.Impl) func(b []byte) error {
	return func(b []byte) error {
		impl := fresh()
		if err := impl.RestoreState(b); err != nil {
			return err
		}
		again, err := impl.SaveState()
		if err != nil {
			return err
		}
		if !bytes.Equal(again, b) {
			return fmt.Errorf("restored state saves as %x", again)
		}
		return nil
	}
}

// reencodes checks that dec accepts b and enc gives back the same bytes.
func reencodes[T any](dec func([]byte) (T, error), enc func(T) []byte) func(b []byte) error {
	return func(b []byte) error {
		v, err := dec(b)
		if err != nil {
			return err
		}
		if again := enc(v); !bytes.Equal(again, b) {
			return fmt.Errorf("decoded value encodes as %x", again)
		}
		return nil
	}
}

// stateFormats builds every hand-framed state, OPR and reply format
// once. A writer that ranges over a map is given one entry per map, so
// its bytes are deterministic.
func stateFormats(t *testing.T) []stateFormat {
	t.Helper()
	hostAddr := oa.Single(oa.MemElement(41))
	subAddr := oa.Single(oa.MemElement(42))
	gIfc := idl.NewInterface("Golden",
		idl.MethodSig{Name: "Get", Params: []idl.Param{{Name: "key", Type: idl.TString}},
			Returns: []idl.Param{{Name: "value", Type: idl.TBytes}, {Name: "found", Type: idl.TBool}}},
		idl.MethodSig{Name: "Poke", Params: []idl.Param{{Name: "n", Type: idl.TUint64}}, OneWay: true})

	// Magistrate: one host, one sub-magistrate, one record.
	vc := clock.NewVirtual(gTime)
	mag := magistrate.New(loid.New(loid.ClassIDMagistrate, 5, loid.DeriveKey("golden/magistrate")), persist.NewMemStore())
	mag.SetClock(vc)
	mustDispatch(t, mag, "AddHost", wire.LOID(gHost), wire.Address(hostAddr))
	mustDispatch(t, mag, "AddSubMagistrate", wire.LOID(gOther), wire.Address(subAddr))
	mustDispatch(t, mag, "Register", wire.LOID(gObj), wire.String("golden.impl"), gState)
	load := host.Load{Residents: 3, CPULimit: 4, MemLimit: 5, DispatchRate: 6, MailboxDepth: 7, CkptDirty: 8}
	mustDispatch(t, mag, "ReportLoad", wire.LOID(gHost), load.Marshal(), nil)
	vc.Advance(1500 * time.Millisecond)
	loads := mustDispatch(t, mag, "GetLoads")[0]

	// A class object with one row, and LegionClass with one entry in
	// each of its maps.
	meta := &class.Meta{
		Self:                   gClass,
		Name:                   "Golden",
		Super:                  loid.LegionObject,
		Flags:                  class.FlagFixed,
		ImplParts:              []string{"golden.impl", "golden.base"},
		Bases:                  []loid.LOID{gOther},
		InstanceInterface:      gIfc,
		NextSeq:                17,
		DefaultSchedulingAgent: gOther,
		DefaultMagistrates:     []loid.LOID{gOther},
	}
	cls, err := class.NewClassImpl(meta)
	if err != nil {
		t.Fatal(err)
	}
	mustDispatch(t, cls, "RegisterInstance", wire.LOID(gObj), wire.Address(hostAddr))
	mustDispatch(t, cls, "SetCurrentMagistrates", wire.LOID(gObj), wire.LOIDList([]loid.LOID{gOther}))
	mustDispatch(t, cls, "SetCandidateMagistrates", wire.LOID(gObj), wire.LOIDList([]loid.LOID{gOther, gHost}))
	metaclass, err := class.NewMetaclass()
	if err != nil {
		t.Fatal(err)
	}
	mustDispatch(t, metaclass, "NewClassID", wire.LOID(gClass), wire.String("Golden"))
	mustDispatch(t, metaclass, "RegisterClassBinding", wire.LOID(gClass), wire.Address(subAddr))

	// A context with two leaves; Walk visits them in sorted order.
	ctxImpl := naming.NewContextImpl()
	mustDispatch(t, ctxImpl, "BindName", wire.String("/golden/leaf"), wire.LOID(gObj), wire.Bool(false))
	mustDispatch(t, ctxImpl, "BindName", wire.String("/golden/dir/inner"), wire.LOID(gOther), wire.Bool(false))
	targets := mustDispatch(t, ctxImpl, "ListNames", wire.String("/golden"))[2]

	kv := demo.NewKV()
	mustDispatch(t, kv, "Put", wire.String("alpha"), []byte("one"))
	mustDispatch(t, kv, "Put", wire.String("beta"), []byte("two"))
	counter := demo.NewCounter()
	mustDispatch(t, counter, "Add", wire.Int64(42))
	comp, err := rt.NewComposite("GoldenComposite", counter, kv)
	if err != nil {
		t.Fatal(err)
	}
	newComposite := func() rt.Impl {
		c, err := rt.NewComposite("GoldenComposite", demo.NewCounter(), demo.NewKV())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	report := &obs.Report{
		Counters: []metrics.NamedValue{{Name: "rt/calls", Value: 99}},
		Hists: []obs.HistSnap{{Name: "rt/call", Count: 4, Sum: 12 * time.Microsecond,
			Buckets:   []obs.BucketCount{{Bucket: 3, Count: 4}},
			Exemplars: []metrics.Exemplar{{Bucket: 3, Dur: 5 * time.Microsecond, TraceID: 0xabc}}}},
		Events: []obs.Event{{Seq: 1, At: gTime, Host: "h1", Kind: "activate", Object: "L1000.7", Detail: "golden", TraceID: 7}},
	}
	table := &obs.Table{
		Cols: []string{"s", "n", "d", "t", "b"},
		Rows: [][]obs.Value{{obs.Str("x"), obs.Num(2.5), obs.Dur(3 * time.Millisecond), obs.TimeOf(gTime), obs.Bool(true)}},
	}
	opr := persist.OPR{LOID: gObj, Impl: "golden.impl", State: gState, Saved: gTime}
	batch := []persist.OPR{opr, {LOID: gOther, Impl: "golden.other"}}

	return []stateFormat{
		{"magistrate.state", mustSave(t, "magistrate", mag), nil},
		{"magistrate.loads", loads, func(b []byte) error {
			// The Magistrate reports its own resident count, not the host's.
			want := load
			want.Residents = 0
			ls, err := magistrate.UnmarshalLoads(b)
			if err == nil && (len(ls) != 1 || ls[0].Load != want || ls[0].Age != 1500*time.Millisecond) {
				err = fmt.Errorf("decoded %+v", ls)
			}
			return err
		}},
		{"class.state", mustSave(t, "class", cls), resaves(class.NewEmptyClassImpl)},
		{"class.metaclass", mustSave(t, "metaclass", metaclass), resaves(func() rt.Impl {
			m, err := class.NewMetaclass()
			if err != nil {
				t.Fatal(err)
			}
			return m
		})},
		{"obs.report", report.Marshal(), reencodes(obs.UnmarshalReport, (*obs.Report).Marshal)},
		{"obs.table", table.Marshal(), reencodes(obs.UnmarshalTable, (*obs.Table).Marshal)},
		{"idl.interface", gIfc.Marshal(nil), func(b []byte) error {
			in, rest, err := idl.Unmarshal(b)
			if err == nil && (len(rest) != 0 || !bytes.Equal(in.Marshal(nil), b)) {
				err = fmt.Errorf("decoded %v with %d trailing bytes", in, len(rest))
			}
			return err
		}},
		{"naming.context", mustSave(t, "context", ctxImpl), resaves(naming.NewContextImpl)},
		{"naming.targets", targets, nil},
		{"persist.opr", opr.Marshal(nil), reencodes(persist.Unmarshal, func(o persist.OPR) []byte { return o.Marshal(nil) })},
		{"persist.batch", persist.EncodeOPRBatch(batch), reencodes(persist.DecodeOPRBatch, persist.EncodeOPRBatch)},
		{"rt.composite", mustSave(t, "composite", comp), resaves(newComposite)},
		{"wire.loidlist", wire.LOIDList([]loid.LOID{gObj, gOther}), reencodes(wire.AsLOIDList, wire.LOIDList)},
		{"wire.stringlist", wire.StringList([]string{"a", "", "golden"}), reencodes(wire.AsStringList, wire.StringList)},
		{"host.load", load.Marshal(), reencodes(host.UnmarshalLoad, host.Load.Marshal)},
		{"demo.kv", mustSave(t, "kv", kv), resaves(demo.NewKV)},
	}
}

// TestStateFormatsGolden pins the bytes of every hand-framed state,
// OPR and reply format. OPRs and saved states outlive the process (the
// segment store and system.state), so a change that moves one of these
// bytes is a format change, not a refactor.
func TestStateFormatsGolden(t *testing.T) {
	var got strings.Builder
	for _, f := range stateFormats(t) {
		got.WriteString(f.name + " " + hex.EncodeToString(f.bytes) + "\n")
		if f.check != nil {
			if err := f.check(f.bytes); err != nil {
				t.Errorf("%s: %v", f.name, err)
			}
		}
	}
	checkGolden(t, "testdata/state_formats.golden", got.String())
}
