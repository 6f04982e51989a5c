package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/buf"
)

// TestFrameLazyAccessorsV4 checks every lazy accessor against the
// inputs the frame was built from.
func TestFrameLazyAccessorsV4(t *testing.T) {
	env := sampleEnv
	env.Deadline = 777
	env.TraceID, env.SpanID, env.ParentSpanID = 1, 2, 3
	data := sampleRequest(env)

	var f Frame
	if err := f.Parse(data); err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindRequest || f.ID != 42 || f.Code != OK {
		t.Fatalf("eager fields mismatch: %+v", f)
	}
	if f.Target() != sampleTarget {
		t.Errorf("Target = %v, want %v", f.Target(), sampleTarget)
	}
	if f.TargetID() != sampleTarget.Ident() {
		t.Errorf("TargetID = %v, want %v", f.TargetID(), sampleTarget.Ident())
	}
	if f.Deadline() != 777 || f.TraceID() != 1 || f.SpanID() != 2 || f.ParentSpanID() != 3 {
		t.Errorf("deadline/trace = %d %d %d %d", f.Deadline(), f.TraceID(), f.SpanID(), f.ParentSpanID())
	}
	if f.Env() != env {
		t.Errorf("Env = %+v, want %+v", f.Env(), env)
	}
	if f.EnvCalling() != env.Calling {
		t.Errorf("EnvCalling = %v", f.EnvCalling())
	}
	if string(f.MethodBytes()) != "GetBinding" || f.Method() != "GetBinding" {
		t.Errorf("method = %q, want GetBinding", f.Method())
	}
	if !f.HasReplyTo() || f.ReplyToLen() != 1 || f.ReplyToElem(0) != sampleReplyTo.Elements[0] {
		t.Errorf("ReplyToElem = %v", f.ReplyToElem(0))
	}
	if f.NumArgs() != 2 || !bytes.Equal(f.Arg(0), sampleArgs[0]) || !bytes.Equal(f.Arg(1), sampleArgs[1]) {
		t.Errorf("args mismatch")
	}
	views := f.ArgViews(nil)
	if len(views) != 2 || !bytes.Equal(views[0], sampleArgs[0]) {
		t.Errorf("ArgViews mismatch")
	}
	// Views alias the input.
	data[len(data)-1] ^= 0xFF // corrupt the last arg byte in place
	if bytes.Equal(f.Arg(1), sampleArgs[1]) {
		t.Error("Arg must alias the frame bytes")
	}
}

// TestFrameRejectsLegacyVersions pins that v4 is the only version
// spoken: a frame under a retired v2 or v3 header is refused, not
// misread as v4.
func TestFrameRejectsLegacyVersions(t *testing.T) {
	for _, ver := range []byte{2, 3} {
		data := sampleRequest(sampleEnv)
		data[2] = ver
		var f Frame
		if err := f.Parse(data); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("v%d: Parse = %v, want unsupported version", ver, err)
		}
	}
}

// TestFrameTruncationsAllVersions runs the truncation sweep against the
// lazy parser for the one accepted version, v4.
func TestFrameTruncationsAllVersions(t *testing.T) {
	data := sampleRequest(sampleEnv)
	for n := 0; n < len(data); n++ {
		var f Frame
		if err := f.Parse(data[:n]); err == nil {
			t.Fatalf("Parse of %d-byte prefix succeeded", n)
		}
	}
	var f Frame
	if err := f.Parse(append(append([]byte(nil), data...), 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestFrameOwnership(t *testing.T) {
	b := buf.Get()
	b.B = append(b.B, sampleRequest(sampleEnv)...)
	f := GetFrame()
	if err := f.Parse(b.B); err != nil {
		t.Fatal(err)
	}
	f.Own(b)
	if b.Refs() != 2 {
		t.Fatalf("Own took %d refs, want buffer at 2", b.Refs())
	}
	b.Release() // transport's reference goes away; frame keeps the bytes
	if f.Method() != "GetBinding" {
		t.Fatal("frame lost its bytes after transport release")
	}
	f.Close()
}

func TestInternMethod(t *testing.T) {
	a := InternMethod([]byte("Ping"))
	b := InternMethod([]byte("Ping"))
	if a != b {
		t.Fatal("intern mismatch")
	}
	// Table-full and oversized fallbacks still return correct strings.
	long := make([]byte, internMaxLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if got := InternMethod(long); got != string(long) {
		t.Fatal("oversized name mangled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if InternMethod([]byte("Ping")) != "Ping" {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Errorf("interned lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestParseZeroAlloc pins the hot-path property the whole PR is built
// on: parsing a small v4 request must not allocate.
func TestParseZeroAlloc(t *testing.T) {
	data := sampleRequest(sampleEnv)
	f := GetFrame()
	defer f.Close()
	allocs := testing.AllocsPerRun(100, func() {
		if err := f.Parse(data); err != nil {
			t.Fatal(err)
		}
		_ = f.TargetID()
		_ = f.Deadline()
		_ = f.Arg(0)
	})
	if allocs != 0 {
		t.Errorf("Parse allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkParseFrameV4(b *testing.B) {
	data := sampleRequest(sampleEnv)
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrameQueueFIFO: frames come out in the order they went in, an
// emptied queue is reusable, and a popped frame can join another queue.
func TestFrameQueueFIFO(t *testing.T) {
	var q, q2 FrameQueue
	if q.Pop() != nil || q.Len() != 0 {
		t.Fatal("zero queue not empty")
	}
	frames := []*Frame{GetFrame(), GetFrame(), GetFrame()}
	for round := 0; round < 2; round++ {
		for i, f := range frames {
			q.Push(f)
			if q.Len() != i+1 {
				t.Fatalf("Len = %d after %d pushes", q.Len(), i+1)
			}
		}
		for i, want := range frames {
			got := q.Pop()
			if got != want {
				t.Fatalf("round %d pop %d: wrong frame", round, i)
			}
			q2.Push(got)
		}
		if q.Pop() != nil || q.Len() != 0 {
			t.Fatal("queue not empty after popping everything")
		}
		for range frames {
			q2.Pop()
		}
	}
	for _, f := range frames {
		f.Close()
	}
}

// TestWaitMark: a marked request parses to the same Kind with Waits
// set; a forward clears the mark (the forwarder is not the waiter); a
// reply or a one-way request never carries it.
func TestWaitMark(t *testing.T) {
	data := sampleRequest(sampleEnv)
	if parse(t, data).Waits() {
		t.Fatal("an unmarked request waits")
	}
	MarkWaits(data)
	f := parse(t, data)
	if f.Kind != KindRequest || !f.Waits() || f.Forwarded() {
		t.Fatalf("marked request: kind %d, waits %v, forwarded %v", f.Kind, f.Waits(), f.Forwarded())
	}
	MarkForwarded(data)
	if f := parse(t, data); f.Kind != KindRequest || f.Waits() || !f.Forwarded() {
		t.Fatalf("forwarded request: kind %d, waits %v, forwarded %v", f.Kind, f.Waits(), f.Forwarded())
	}

	for _, other := range [][]byte{
		AppendReply(nil, 42, sampleTarget, OK, "", nil, sampleReplyTo),
		AppendRequest(nil, KindOneWay, 0, sampleTarget, "Notify", &Env{}, sampleReplyTo, nil),
	} {
		kind := parse(t, other).Kind
		MarkWaits(other)
		if f := parse(t, other); f.Kind != kind || f.Waits() {
			t.Errorf("kind %d after MarkWaits: kind %d, waits %v", kind, f.Kind, f.Waits())
		}
		other[3] |= waitFlag // set by hand: the kind still parses, and still does not wait
		if f := parse(t, other); f.Kind != kind || f.Waits() {
			t.Errorf("kind %d with the bit set: kind %d, waits %v", kind, f.Kind, f.Waits())
		}
	}
}
