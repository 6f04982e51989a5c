package idlgen

import (
	"bytes"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"repro/internal/demo"
	"repro/internal/idl"
)

// allTypesInterface exercises every IDL parameter type.
func allTypesInterface(t *testing.T) *idl.Interface {
	t.Helper()
	in, err := idl.ParseOne(`
interface Kitchen {
	sink(a int64, b uint64, c string, d bool, e bytes, f loid, g address, h binding, i time)
		returns (ra int64, rb uint64, rc string, rd bool, re bytes, rf loid, rg address, rh binding, ri time);
	oneway fire(msg string);
	ping();
}`)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestGenerateParsesAsGo(t *testing.T) {
	code, err := Generate("kitchen", allTypesInterface(t))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", code, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, code)
	}
	// And it is gofmt-stable after one formatting pass.
	formatted, err := format.Source(code)
	if err != nil {
		t.Fatalf("gofmt: %v", err)
	}
	again, err := format.Source(formatted)
	if err != nil || !bytes.Equal(formatted, again) {
		t.Error("generated code not gofmt-stable")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	in := allTypesInterface(t)
	a, err := Generate("p", in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("p", in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("generation not deterministic")
	}
}

func TestGenerateContainsExpectedDecls(t *testing.T) {
	code, err := Generate("kitchen", allTypesInterface(t))
	if err != nil {
		t.Fatal(err)
	}
	s := string(code)
	for _, want := range []string{
		"type KitchenClient struct",
		"func NewKitchenClient(",
		"type KitchenServer interface",
		"func NewKitchenImpl(",
		"func KitchenInterface() *idl.Interface",
		"func (x *KitchenClient) Sink(",
		"func (x *KitchenClient) Fire(",
		"x.c.OneWay(x.target, \"fire\"",
		"\"repro/internal/oa\"",
		"\"repro/internal/binding\"",
		"\"time\"",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateRejectsEmpty(t *testing.T) {
	if _, err := Generate("p", nil); err == nil {
		t.Error("nil interface accepted")
	}
	if _, err := Generate("p", idl.NewInterface("Empty")); err == nil {
		t.Error("empty interface accepted")
	}
}

func TestGenerateMinimalImports(t *testing.T) {
	in, err := idl.ParseOne(`interface Tiny { m(a string) returns (b string); }`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	s := string(code)
	for _, absent := range []string{"repro/internal/oa", "repro/internal/binding", `"time"`} {
		if strings.Contains(s, absent) {
			t.Errorf("unnecessary import %q", absent)
		}
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", code, 0); err != nil {
		t.Fatalf("minimal code does not parse: %v", err)
	}
}

func TestGenerateKeywordParamNames(t *testing.T) {
	in, err := idl.ParseOne(`interface Edge { m(type string, range int64) returns (value bool); }`)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate("edge", in)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", code, 0); err != nil {
		t.Fatalf("keyword params break generation: %v\n%s", err, code)
	}
}

// TestGoldenCounter: the checked-in internal/demo/counter_gen.go is
// what this generator emits for demo.CounterIDL (after gofmt), and the
// interface accessor it emits hands every caller the one interface the
// class has — demo.CounterInterface is that emitted code, compiled.
func TestGoldenCounter(t *testing.T) {
	in, err := idl.ParseOne(demo.CounterIDL)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate("demo", in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := format.Source(code)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../demo/counter_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("internal/demo/counter_gen.go is stale; regenerate it with legion-idl gen -pkg demo and gofmt.\nwant:\n%s", want)
	}
	if demo.CounterInterface() != demo.CounterInterface() {
		t.Error("CounterInterface built a second interface; every instance would carry its own")
	}
}
