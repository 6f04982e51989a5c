package trace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSampling(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	var sampled int
	for i := 0; i < 40; i++ {
		if s := tr.Root("call", "M", "c"); s != nil {
			sampled++
			s.Finish("OK")
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 40 roots at 1-in-4, want 10", sampled)
	}

	every := New(Config{SampleEvery: 1})
	if every.Root("call", "M", "c") == nil {
		t.Error("SampleEvery=1 must sample every root")
	}
}

func TestChildOfSampledTraceAlwaysRecorded(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	root := tr.Root("call", "M", "client")
	child := tr.Child(root.Context(), "serve", "M", "server")
	if child == nil {
		t.Fatal("child of a sampled trace must be traced")
	}
	if got := child.Context(); got.TraceID != root.Context().TraceID ||
		got.ParentSpanID != root.Context().SpanID ||
		got.SpanID == root.Context().SpanID {
		t.Errorf("child context %+v does not descend from root %+v", got, root.Context())
	}
	if tr.Child(SpanContext{}, "serve", "M", "server") != nil {
		t.Error("child of an invalid parent must be nil")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Root("a", "b", "c") != nil || tr.Child(SpanContext{TraceID: 1, SpanID: 1}, "a", "b", "c") != nil {
		t.Error("nil tracer must hand out nil spans")
	}
	if tr.Spans() != nil {
		t.Error("nil tracer Spans() must be nil")
	}
	var s *Span
	s.Event("x", "y")
	s.Finish("OK") // must not panic
	if s.Context().Valid() || s.Duration() != 0 {
		t.Error("nil span must read as zero")
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	tr.ring = NewRing[Span](4)
	var last SpanContext
	for i := 0; i < 10; i++ {
		s := tr.Root("call", "M", "c")
		last = s.Context()
		s.Finish("OK")
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want capacity 4", len(spans))
	}
	// Newest span survives; oldest-first order means it is last.
	if spans[len(spans)-1].Context() != last {
		t.Errorf("newest span not last in ring order")
	}
	if got := tr.Ring().Overwritten(); got != 6 {
		t.Errorf("span ring overwrote %d, want 6", got)
	}
}

func TestTraceAndTraceIDs(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	a := tr.Root("call", "A", "c")
	tr.Child(a.Context(), "serve", "A", "s").Finish("OK")
	a.Finish("OK")
	b := tr.Root("call", "B", "c")
	b.Finish("OK")

	if got := tr.Trace(a.Context().TraceID); len(got) != 2 {
		t.Errorf("trace A has %d spans, want 2", len(got))
	}
	ids := tr.TraceIDs()
	if len(ids) != 2 || ids[0] != b.Context().TraceID {
		t.Errorf("TraceIDs = %v, want [B A] newest-first", ids)
	}
}

func TestContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 7, SpanID: 8, ParentSpanID: 6}
	ctx := NewContext(context.Background(), sc)
	if got := FromContext(ctx); got != sc {
		t.Errorf("FromContext = %+v, want %+v", got, sc)
	}
	if got := FromContext(context.Background()); got.Valid() {
		t.Errorf("empty context yielded %+v", got)
	}
	if got := FromContext(nil); got.Valid() {
		t.Error("nil context must yield zero SpanContext")
	}
	// Invalid contexts propagate nothing.
	if ctx := NewContext(context.Background(), SpanContext{}); FromContext(ctx).Valid() {
		t.Error("invalid SpanContext must not be stored")
	}
}

func TestConcurrentRootsAndRecords(t *testing.T) {
	tr := New(Config{SampleEvery: 2})
	tr.ring = NewRing[Span](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if s := tr.Root("call", "M", "c"); s != nil {
					c := tr.Child(s.Context(), "serve", "M", "srv")
					c.Event("cache", "hit")
					c.Finish("OK")
					s.Finish("OK")
				}
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 128 {
		t.Errorf("ring holds %d spans after heavy traffic, want full capacity 128", len(spans))
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.Context().SpanID] {
			t.Fatalf("duplicate span id %d in ring", s.Context().SpanID)
		}
		seen[s.Context().SpanID] = true
	}
}

func TestTimelineRendering(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	root := tr.Root("call", "Work", "client-0")
	child := tr.Child(root.Context(), "serve", "Work", "host-1")
	child.Event("cache", "miss")
	child.Finish("OK")
	root.Finish("OK")

	out := Timeline(tr.Trace(root.Context().TraceID))
	for _, want := range []string{"client-0", "host-1", "cache: miss", "2 spans"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	// The child renders indented under the root.
	lines := strings.Split(out, "\n")
	var rootLine, childLine string
	for _, l := range lines {
		if strings.Contains(l, "client-0") {
			rootLine = l
		}
		if strings.Contains(l, "host-1") {
			childLine = l
		}
	}
	if indent(childLine) <= indent(rootLine) {
		t.Errorf("child not indented under root:\n%s", out)
	}
}

func indent(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }

func TestChromeJSON(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	root := tr.Root("call", "Work", "client-0")
	child := tr.Child(root.Context(), "serve", "Work", "host-1")
	child.Event("retry", "wave 2")
	child.Finish("OK")
	root.Finish("OK")

	out, err := ChromeJSON(tr.Trace(root.Context().TraceID))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(out, &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	var complete, instant int
	for _, e := range events {
		switch e["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	if complete != 2 {
		t.Errorf("chrome export has %d complete events, want 2", complete)
	}
	if instant != 1 {
		t.Errorf("chrome export has %d instant events, want 1 (the retry)", instant)
	}
}
