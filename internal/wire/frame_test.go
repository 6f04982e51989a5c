package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/oa"
)

// TestFrameLazyAccessorsV4 checks every lazy accessor against the
// eager Message decode of the same v4 bytes.
func TestFrameLazyAccessorsV4(t *testing.T) {
	m := sampleRequest()
	m.Env.Deadline = 777
	m.Env.TraceID, m.Env.SpanID, m.Env.ParentSpanID = 1, 2, 3
	data := m.Marshal(nil)

	var f Frame
	if err := f.Parse(data); err != nil {
		t.Fatal(err)
	}
	if f.Kind != m.Kind || f.ID != m.ID || f.Code != m.Code {
		t.Fatalf("eager fields mismatch: %+v", f)
	}
	if f.Target() != m.Target {
		t.Errorf("Target = %v, want %v", f.Target(), m.Target)
	}
	if f.TargetID() != m.Target.Ident() {
		t.Errorf("TargetID = %v, want %v", f.TargetID(), m.Target.Ident())
	}
	if f.Env() != m.Env {
		t.Errorf("Env = %+v, want %+v", f.Env(), m.Env)
	}
	if f.EnvCalling() != m.Env.Calling {
		t.Errorf("EnvCalling = %v", f.EnvCalling())
	}
	if string(f.MethodBytes()) != m.Method || f.Method() != m.Method {
		t.Errorf("method = %q, want %q", f.Method(), m.Method)
	}
	if !f.ReplyToAddress().Equal(m.ReplyTo) {
		t.Errorf("ReplyTo = %v, want %v", f.ReplyToAddress(), m.ReplyTo)
	}
	if f.ReplyToLen() != 1 || f.ReplyToElem(0) != m.ReplyTo.Elements[0] {
		t.Errorf("ReplyToElem = %v", f.ReplyToElem(0))
	}
	if f.NumArgs() != 2 || !bytes.Equal(f.Arg(0), m.Args[0]) || !bytes.Equal(f.Arg(1), m.Args[1]) {
		t.Errorf("args mismatch")
	}
	views := f.ArgViews(nil)
	if len(views) != 2 || !bytes.Equal(views[0], m.Args[0]) {
		t.Errorf("ArgViews mismatch")
	}
	// Views alias the input; copies must not.
	if &data[0:1][0] != &data[0] {
		t.Fatal("sanity")
	}
	copies := f.CopyArgs()
	data[len(data)-1] ^= 0xFF // corrupt the last arg byte in place
	if bytes.Equal(f.Arg(1), copies[1]) {
		t.Error("Arg must alias the frame bytes; CopyArgs must not")
	}
}

// TestFrameRejectsLegacyVersions pins that v4 is the only version
// spoken: a frame under a retired v2 or v3 header is refused by both
// decoders, not misread as v4.
func TestFrameRejectsLegacyVersions(t *testing.T) {
	for _, ver := range []byte{2, 3} {
		data := sampleRequest().Marshal(nil)
		data[2] = ver
		var f Frame
		if err := f.Parse(data); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("v%d: Parse = %v, want unsupported version", ver, err)
		}
		if _, err := Unmarshal(data); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("v%d: Unmarshal = %v, want unsupported version", ver, err)
		}
	}
}

// TestAppendRequestMatchesMessage pins the direct builders against the
// Message encoder: same inputs, byte-identical frames.
func TestAppendRequestMatchesMessage(t *testing.T) {
	m := sampleRequest()
	m.Env.Deadline = 99
	direct := AppendRequest(nil, m.Kind, m.ID, m.Target, m.Method, &m.Env, m.ReplyTo, m.Args)
	viaMsg := m.Marshal(nil)
	if !bytes.Equal(direct, viaMsg) {
		t.Fatalf("AppendRequest differs from Message.Marshal:\n%x\n%x", direct, viaMsg)
	}
}

func TestAppendReplyMatchesMessage(t *testing.T) {
	req := sampleRequest()
	rep := req.Reply(ErrApp, "boom", [][]byte{String("r")})
	rep.ReplyTo = oa.Single(oa.MemElement(4))
	direct := AppendReply(nil, req.ID, req.Env.Calling, ErrApp, "boom",
		[][]byte{String("r")}, oa.Single(oa.MemElement(4)))
	viaMsg := rep.Marshal(nil)
	if !bytes.Equal(direct, viaMsg) {
		t.Fatalf("AppendReply differs from Message.Marshal:\n%x\n%x", direct, viaMsg)
	}
}

// TestFrameTruncationsAllVersions runs the truncation sweep against the
// lazy parser for the one accepted version, v4.
func TestFrameTruncationsAllVersions(t *testing.T) {
	data := sampleRequest().Marshal(nil)
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
	b.B = sampleRequest().Marshal(b.B)
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
	data := sampleRequest().Marshal(nil)
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
	data := sampleRequest().Marshal(nil)
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalEager(b *testing.B) {
	data := sampleRequest().Marshal(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
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
