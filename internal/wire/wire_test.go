package wire

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/binding"
	"repro/internal/loid"
	"repro/internal/oa"
)

func sampleRequest() *Message {
	return &Message{
		Kind:   KindRequest,
		ID:     42,
		Target: loid.NewNoKey(256, 7),
		Method: "GetBinding",
		Env: Env{
			Responsible: loid.NewNoKey(300, 1),
			Security:    loid.NewNoKey(300, 2),
			Calling:     loid.NewNoKey(300, 3),
		},
		ReplyTo: oa.Single(oa.MemElement(9)),
		Args:    [][]byte{String("hello"), Uint64(5)},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleRequest()
	buf := m.Marshal(nil)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.ID != m.ID || got.Target != m.Target || got.Method != m.Method {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Env != m.Env {
		t.Errorf("env mismatch: %+v", got.Env)
	}
	if !got.ReplyTo.Equal(m.ReplyTo) {
		t.Errorf("reply-to mismatch: %v", got.ReplyTo)
	}
	if len(got.Args) != 2 || !bytes.Equal(got.Args[0], m.Args[0]) || !bytes.Equal(got.Args[1], m.Args[1]) {
		t.Errorf("args mismatch: %v", got.Args)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	req := sampleRequest()
	rep := req.Reply(ErrDenied, "MayI refused", nil)
	got, err := Unmarshal(rep.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindReply || got.ID != req.ID || got.Code != ErrDenied || got.ErrText != "MayI refused" {
		t.Errorf("reply = %+v", got)
	}
	if got.Target != req.Env.Calling {
		t.Errorf("reply target = %v, want calling agent", got.Target)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, method string, args [][]byte, code uint16, errText string) bool {
		if len(args) > 20 {
			args = args[:20]
		}
		m := &Message{
			Kind: KindRequest, ID: id, Target: loid.NewNoKey(1, 2),
			Method: method, Args: args, Code: Code(code), ErrText: errText,
		}
		got, err := Unmarshal(m.Marshal(nil))
		if err != nil {
			return false
		}
		if got.ID != id || got.Method != method || got.Code != Code(code) || got.ErrText != errText {
			return false
		}
		if len(got.Args) != len(args) {
			return false
		}
		for i := range args {
			if !bytes.Equal(got.Args[i], args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncations(t *testing.T) {
	buf := sampleRequest().Marshal(nil)
	for n := 0; n < len(buf); n += 7 {
		if _, err := Unmarshal(buf[:n]); err == nil {
			t.Errorf("Unmarshal of %d-byte prefix succeeded", n)
		}
	}
}

func TestUnmarshalTrailingGarbage(t *testing.T) {
	buf := append(sampleRequest().Marshal(nil), 0xFF)
	if _, err := Unmarshal(buf); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestUnmarshalBadMagicVersion(t *testing.T) {
	buf := sampleRequest().Marshal(nil)
	bad := append([]byte(nil), buf...)
	bad[0] = 0xFF
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[2] = 99
	if _, err := Unmarshal(bad); err == nil {
		t.Error("bad version accepted")
	}
}

// TestV3TraceFieldsRoundTrip checks the trace triple survives encoding.
func TestV3TraceFieldsRoundTrip(t *testing.T) {
	m := sampleRequest()
	m.Env.TraceID, m.Env.SpanID, m.Env.ParentSpanID = 0xAAA1, 0xBBB2, 0xCCC3
	got, err := Unmarshal(m.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Env.TraceID != 0xAAA1 || got.Env.SpanID != 0xBBB2 || got.Env.ParentSpanID != 0xCCC3 {
		t.Errorf("trace ids did not round-trip: %+v", got.Env)
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

func TestMessageString(t *testing.T) {
	if s := sampleRequest().String(); !strings.Contains(s, "GetBinding") {
		t.Errorf("String = %q", s)
	}
	rep := sampleRequest().Reply(OK, "", nil)
	if s := rep.String(); !strings.Contains(s, "rep#42") {
		t.Errorf("String = %q", s)
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
