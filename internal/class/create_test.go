package class

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/trace"
)

// TestCreateFailureLeavesNothing: a Create the Magistrate refuses is
// atomic. Neither the Magistrate's table nor its store keeps an object
// that the class never recorded and nobody can name.
func TestCreateFailureLeavesNothing(t *testing.T) {
	fx := newFixture(t)
	fx.mag.SetFilter(func(_ loid.LOID, impl string, _ loid.LOID) error {
		if impl == "echo" {
			return errors.New("echo is not run here")
		}
		return nil
	})
	mc := magistrate.NewClient(fx.caller, fx.magL)
	before, err := mc.ListObjects()
	if err != nil {
		t.Fatal(err)
	}
	records := fx.store.Stats().Records

	if _, _, err := fx.root.Create(nil, loid.Nil, loid.Nil); err == nil {
		t.Fatal("Create succeeded past a filter that refuses its implementation")
	}

	after, err := mc.ListObjects()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range after {
		if l.ClassID == fx.rootL.ClassID {
			t.Errorf("the refused Create left %v in the Magistrate's table", l)
		}
	}
	if len(after) != len(before) {
		t.Errorf("the Magistrate lists %d objects after the refused Create, %d before", len(after), len(before))
	}
	if n := fx.store.Stats().Records; n != records {
		t.Errorf("the refused Create took the store from %d records to %d", records, n)
	}
}

// TestCreateSetPartialFailure: CreateSet makes its objects as lone
// Creates would, in LOID order. An object no host will run leaves
// nothing behind: no row in the class, no record in the Magistrate.
// The error names the first such object, and the others are made and
// recorded all the same.
func TestCreateSetPartialFailure(t *testing.T) {
	fx := newFixture(t)
	fx.mag.SetFilter(func(l loid.LOID, _ string, _ loid.LOID) error {
		if l.ClassSpecific == 2 || l.ClassSpecific == 4 {
			return errors.New("not run here")
		}
		return nil
	})
	_, err := CreateSet.Call(context.Background(), fx.root.Ref, NewSet{Count: 5})
	if err == nil {
		t.Fatal("CreateSet succeeded past a filter that refuses two of its objects")
	}
	if want := loid.NewNoKey(fx.rootL.ClassID, 2).ID().String(); !strings.Contains(err.Error(), want) {
		t.Errorf("CreateSet error %q does not name the first refused object %s", err, want)
	}
	held, err := magistrate.ListObjects.Call(context.Background(), fx.caller.To(fx.magL))
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		refused := seq == 2 || seq == 4
		_, rowErr := GetRow.Call(context.Background(), fx.root.Ref, loid.NewNoKey(fx.rootL.ClassID, seq))
		if hasRow := rowErr == nil; hasRow == refused {
			t.Errorf("object %d: row %v, refused %v", seq, hasRow, refused)
		}
		recorded := slices.ContainsFunc(held, func(l loid.LOID) bool {
			return l.ClassID == fx.rootL.ClassID && l.ClassSpecific == seq
		})
		if recorded == refused {
			t.Errorf("object %d: Magistrate record %v, refused %v", seq, recorded, refused)
		}
	}
	if n := fx.store.Stats().Records; n != 0 {
		t.Errorf("the store holds %d records after a CreateSet", n)
	}
}

// TestDeriveTraceCoversInstantiate: Derive passes its invocation's
// context on, so the LegionClass consult and the Magistrate's
// Instantiate are hops of the caller's trace, under its Derive span.
func TestDeriveTraceCoversInstantiate(t *testing.T) {
	fx := newFixture(t)
	tr := trace.New(trace.Config{SampleEvery: 1})
	for _, n := range fx.nodes {
		n.SetTracer(tr)
	}
	if _, _, err := fx.root.Derive("Traced", "", nil, 0, loid.Nil); err != nil {
		t.Fatal(err)
	}

	var derive *trace.Span
	for _, s := range tr.Spans() {
		if s.Kind == "call" && s.Name == "Derive" && s.Context().ParentSpanID == 0 {
			derive = s
		}
	}
	if derive == nil {
		t.Fatalf("no root Derive span:\n%s", trace.Timeline(tr.Spans()))
	}
	spans := tr.Trace(derive.Context().TraceID)
	byID := make(map[uint64]*trace.Span, len(spans))
	for _, s := range spans {
		byID[s.Context().SpanID] = s
	}
	under := func(s *trace.Span) bool {
		for p := s; p != nil; p = byID[p.Context().ParentSpanID] {
			if p == derive {
				return true
			}
		}
		return false
	}
	for _, hop := range []string{"NewClassID", "Instantiate"} {
		found := false
		for _, s := range spans {
			if s.Kind == "serve" && s.Name == hop && under(s) {
				found = true
			}
		}
		if !found {
			t.Errorf("the Derive trace has no %s hop under its span:\n%s", hop, trace.Timeline(spans))
		}
	}
}
