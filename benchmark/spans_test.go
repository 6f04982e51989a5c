package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Seq: 0, Parent: -1, Start: 0, End: 100},
		// Two children overlapping in [30, 40): the covered part is
		// [10, 60), 50 long, not 30 + 30.
		{Name: "a", Seq: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", Seq: 2, Parent: 0, Start: 30, End: 60},
		// A child sticking out past its parent only covers up to 100.
		{Name: "c", Seq: 3, Parent: 0, Start: 90, End: 130},
		// A grandchild is subtracted from its own parent only.
		{Name: "a1", Seq: 4, Parent: 1, Start: 15, End: 25},
		// A child wholly inside another child's interval adds nothing.
		{Name: "d", Seq: 5, Parent: 0, Start: 35, End: 38},
	}
	self := selfTimes(spans)
	for seq, want := range map[int64]int64{0: 100 - 50 - 10, 1: 30 - 10, 2: 30, 3: 40, 4: 10, 5: 3} {
		if self[seq] != want {
			t.Errorf("self time of span %d = %d, want %d", seq, self[seq], want)
		}
	}
}

func TestRecorderNestsAndDropsOrphans(t *testing.T) {
	r := newRecorder(time.Now())
	// More ops than the ring holds: the oldest are overwritten, and a
	// child whose parent is gone must not be returned.
	ops := spanRingCap/2 + 10
	for op := 0; op < ops; op++ {
		r.begin("gen.op", uint64(op))
		r.begin("rt.call", uint64(op))
		r.begin("bindagent.resolve", uint64(op))
		r.end()
		r.end()
		r.end()
	}
	got := r.spans()
	if len(got) == 0 || len(got) > spanRingCap || len(got)%3 != 0 {
		t.Fatalf("retained %d spans", len(got))
	}
	seen := make(map[int64]span)
	for _, s := range got {
		seen[s.Seq] = s
	}
	for _, s := range got {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			if s.Name != "gen.op" {
				t.Fatalf("root span %+v", s)
			}
			continue
		}
		p, ok := seen[s.Parent]
		if !ok {
			t.Fatalf("span %+v returned without its parent", s)
		}
		if p.Op != s.Op {
			t.Fatalf("span %+v has a parent of another op: %+v", s, p)
		}
	}
	sum := summarize(got)
	if sum["gen.op"].Count != len(got)/3 || sum["rt.call"].SelfP50Us > sum["rt.call"].P50Us {
		t.Errorf("summary %+v", sum)
	}
	var off *recorder // tracing off: every call is a no-op
	off.begin("x", 1)
	off.end()
	if off.spans() != nil {
		t.Error("nil recorder returned spans")
	}
}
