package wire

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
)

var (
	sampleTarget = loid.NewNoKey(256, 7)
	sampleEnv    = Env{
		Responsible: loid.NewNoKey(300, 1),
		Security:    loid.NewNoKey(300, 2),
		Calling:     loid.NewNoKey(300, 3),
	}
	sampleReplyTo = oa.Single(oa.MemElement(9))
	sampleArgs    = [][]byte{String("hello"), Uint64(5)}
)

// sampleRequest encodes request 42, GetBinding(sampleArgs) on
// sampleTarget, sent under env from sampleReplyTo.
func sampleRequest(env Env) []byte {
	return AppendRequest(nil, KindRequest, 42, sampleTarget, "GetBinding", &env, sampleReplyTo, sampleArgs)
}

// parse parses data into a fresh Frame, failing t on error.
func parse(t *testing.T, data []byte) *Frame {
	t.Helper()
	var f Frame
	if err := f.Parse(data); err != nil {
		t.Fatal(err)
	}
	return &f
}

// replyTo rebuilds a parsed frame's reply-to Object Address.
func replyTo(f *Frame) oa.Address {
	a := oa.Address{Semantic: f.replySem, K: f.replyK}
	for i := 0; i < f.ReplyToLen(); i++ {
		a.Elements = append(a.Elements, f.ReplyToElem(i))
	}
	return a
}

func TestMessageRoundTrip(t *testing.T) {
	f := parse(t, sampleRequest(sampleEnv))
	if f.Kind != KindRequest || f.ID != 42 || f.Target() != sampleTarget || f.Method() != "GetBinding" {
		t.Errorf("header mismatch: %+v", f)
	}
	if f.Env() != sampleEnv {
		t.Errorf("env mismatch: %+v", f.Env())
	}
	if got := replyTo(f); !got.Equal(sampleReplyTo) {
		t.Errorf("reply-to mismatch: %v", got)
	}
	if f.NumArgs() != 2 || !bytes.Equal(f.Arg(0), sampleArgs[0]) || !bytes.Equal(f.Arg(1), sampleArgs[1]) {
		t.Errorf("args mismatch: %v", f.ArgViews(nil))
	}
}

func TestReplyRoundTrip(t *testing.T) {
	from := oa.Single(oa.MemElement(4))
	f := parse(t, AppendReply(nil, 42, sampleEnv.Calling, ErrDenied, "MayI refused", nil, from))
	if f.Kind != KindReply || f.ID != 42 || f.Code != ErrDenied || f.ErrText() != "MayI refused" {
		t.Errorf("reply = %+v", f)
	}
	if f.Target() != sampleEnv.Calling {
		t.Errorf("reply target = %v, want calling agent", f.Target())
	}
	if got := replyTo(f); !got.Equal(from) {
		t.Errorf("responder = %v, want %v", got, from)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, method string, args [][]byte, code uint16, errText string) bool {
		if len(args) > 20 {
			args = args[:20]
		}
		var fr Frame
		data := appendV4(nil, KindRequest, id, Code(code), loid.NewNoKey(1, 2), method, &Env{}, oa.Address{}, errText, args)
		if fr.Parse(data) != nil {
			return false
		}
		if fr.ID != id || string(fr.MethodBytes()) != method || fr.Code != Code(code) || fr.ErrText() != errText {
			return false
		}
		if fr.NumArgs() != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(fr.Arg(i), args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalTruncations: every proper prefix of every seed frame
// shape is refused.
func TestUnmarshalTruncations(t *testing.T) {
	for _, s := range seedFrames() {
		for n := 0; n < len(s.data); n++ {
			var f Frame
			if f.Parse(s.data[:n]) == nil {
				t.Errorf("%s: %d-byte prefix accepted", s.name, n)
			}
		}
	}
}

// TestUnmarshalTrailingGarbage: a frame must be the whole input, for
// every seed frame shape.
func TestUnmarshalTrailingGarbage(t *testing.T) {
	for _, s := range seedFrames() {
		var f Frame
		if f.Parse(append(append([]byte(nil), s.data...), 0xFF)) == nil {
			t.Errorf("%s: trailing garbage accepted", s.name)
		}
	}
}

func TestUnmarshalBadMagicVersion(t *testing.T) {
	data := sampleRequest(sampleEnv)
	var f Frame
	bad := append([]byte(nil), data...)
	bad[0] = 0xFF
	if f.Parse(bad) == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), data...)
	bad[2] = 99
	if f.Parse(bad) == nil {
		t.Error("bad version accepted")
	}
}

// TestV3TraceFieldsRoundTrip checks the trace triple survives encoding.
func TestV3TraceFieldsRoundTrip(t *testing.T) {
	env := sampleEnv
	env.TraceID, env.SpanID, env.ParentSpanID = 0xAAA1, 0xBBB2, 0xCCC3
	got := parse(t, sampleRequest(env)).Env()
	if got.TraceID != 0xAAA1 || got.SpanID != 0xBBB2 || got.ParentSpanID != 0xCCC3 {
		t.Errorf("trace ids did not round-trip: %+v", got)
	}
}

func TestCodeString(t *testing.T) {
	for code, want := range map[Code]string{
		OK: "ok", ErrApp: "app-error", ErrNoSuchMethod: "no-such-method",
		ErrNoSuchObject: "no-such-object", ErrDenied: "denied",
		ErrUnavailable: "unavailable", ErrBadRequest: "bad-request",
		Code(99): "code99",
	} {
		if code.String() != want {
			t.Errorf("Code(%d).String() = %q, want %q", code, code.String(), want)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if AsString(String("x")) != "x" {
		t.Error("string round trip")
	}
	if v, err := AsUint64(Uint64(77)); err != nil || v != 77 {
		t.Error("uint64 round trip")
	}
	if _, err := AsUint64([]byte{1}); err == nil {
		t.Error("short uint64 accepted")
	}
	if v, err := AsInt64(Int64(-5)); err != nil || v != -5 {
		t.Error("int64 round trip")
	}
	for _, b := range []bool{true, false} {
		if v, err := AsBool(Bool(b)); err != nil || v != b {
			t.Errorf("bool round trip %v", b)
		}
	}
	if _, err := AsBool([]byte{3}); err == nil {
		t.Error("bad bool accepted")
	}
	l := loid.New(5, 6, loid.DeriveKey("x"))
	if v, err := AsLOID(LOID(l)); err != nil || v != l {
		t.Error("LOID round trip")
	}
	if _, err := AsLOID(append(LOID(l), 0)); err == nil {
		t.Error("LOID trailing bytes accepted")
	}
	a := oa.Replicated(oa.SemAll, 0, oa.MemElement(1), oa.MemElement(2))
	if v, err := AsAddress(Address(a)); err != nil || !v.Equal(a) {
		t.Error("address round trip")
	}
	bd := binding.Until(l, a, time.Unix(500, 0))
	if v, err := AsBinding(Binding(bd)); err != nil || !v.Equal(bd) {
		t.Error("binding round trip")
	}
	now := time.Unix(123, 456)
	if v, err := AsTime(Time(now)); err != nil || !v.Equal(now) {
		t.Error("time round trip")
	}
	if v, err := AsTime(Time(time.Time{})); err != nil || !v.IsZero() {
		t.Error("zero time round trip")
	}
}

// TestValueCodecsAllocateOnce: the LOID, Object Address and binding
// encoders size their output up front, so each encoding is exactly one
// allocation however many address elements it carries.
func TestValueCodecsAllocateOnce(t *testing.T) {
	l := loid.New(5, 6, loid.DeriveKey("x"))
	for _, a := range []oa.Address{
		oa.Single(oa.MemElement(1)),
		oa.Replicated(oa.SemAll, 0, oa.MemElement(1), oa.MemElement(2), oa.MemElement(3)),
	} {
		bd := binding.Until(l, a, time.Unix(500, 0))
		for _, c := range []struct {
			name string
			size int
			enc  func() []byte
		}{
			{"LOID", loid.EncodedSize, func() []byte { return LOID(l) }},
			{"Address", a.EncodedSize(), func() []byte { return Address(a) }},
			{"Binding", bd.EncodedSize(), func() []byte { return Binding(bd) }},
		} {
			if n := len(c.enc()); n != c.size {
				t.Errorf("%s with %d elements: %d bytes, want %d", c.name, len(a.Elements), n, c.size)
			}
			if allocs := testing.AllocsPerRun(100, func() { c.enc() }); allocs != 1 {
				t.Errorf("%s with %d elements: %.1f allocs, want 1", c.name, len(a.Elements), allocs)
			}
		}
	}
}

// TestWriterAddressRunAmortized: a run of addresses appended to one
// Writer (a class's saved table, a Magistrate's host list) grows the
// buffer by append's amortized rule. Growing it to the exact size each
// time made every address after the first copy the whole buffer: n
// addresses, n allocations and O(n²) bytes copied.
func TestWriterAddressRunAmortized(t *testing.T) {
	const n = 1024
	a := oa.Single(oa.MemElement(1))
	bd := binding.Forever(loid.NewNoKey(5, 6), a)
	for _, c := range []struct {
		name string
		put  func(w *Writer)
	}{
		{"Address", func(w *Writer) { w.Address(a) }},
		{"Binding", func(w *Writer) { w.Binding(bd) }},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			var w Writer
			for range n {
				c.put(&w)
			}
		})
		if limit := 3 * float64(bits.Len(n)); allocs > limit {
			t.Errorf("%d × %s into one Writer: %.0f allocs, want <= %.0f", n, c.name, allocs, limit)
		}
	}
}

// TestAsLOIDListAllocs gates a LOID list decode at one allocation, the
// result slice: ListHosts and ListObjects replies take this path.
func TestAsLOIDListAllocs(t *testing.T) {
	b := LOIDList([]loid.LOID{loid.NewNoKey(1, 2), loid.NewNoKey(3, 4), loid.NewNoKey(5, 6), loid.NewNoKey(7, 8)})
	if n := testing.AllocsPerRun(100, func() { AsLOIDList(b) }); n > 1 {
		t.Errorf("AsLOIDList of 4: %.0f allocs, want <= 1", n)
	}
}

func TestListHelpers(t *testing.T) {
	ls := []loid.LOID{loid.NewNoKey(1, 2), loid.NewNoKey(3, 4)}
	bs := []binding.Binding{binding.Forever(ls[0], oa.Single(oa.MemElement(1))), {LOID: ls[1]}}
	if got, err := AsBindingList(BindingList(bs)); err != nil || len(got) != 2 || !got[0].Equal(bs[0]) || !got[1].Equal(bs[1]) {
		t.Errorf("binding list round trip: %v %v", got, err)
	}
	got, err := AsLOIDList(LOIDList(ls))
	if err != nil || len(got) != 2 || got[0] != ls[0] || got[1] != ls[1] {
		t.Errorf("LOID list round trip: %v %v", got, err)
	}
	empty, err := AsLOIDList(LOIDList(nil))
	if err != nil || len(empty) != 0 {
		t.Errorf("empty LOID list: %v %v", empty, err)
	}
	if _, err := AsLOIDList([]byte{0, 0}); err == nil {
		t.Error("short LOID list accepted")
	}
	ss := []string{"a", "", "long string here"}
	gotS, err := AsStringList(StringList(ss))
	if err != nil || len(gotS) != 3 || gotS[2] != ss[2] {
		t.Errorf("string list round trip: %v %v", gotS, err)
	}
	if _, err := AsStringList(append(StringList(ss), 1)); err == nil {
		t.Error("string list trailing bytes accepted")
	}
}
