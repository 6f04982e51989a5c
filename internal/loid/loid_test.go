package loid

import (
	"testing"
	"testing/quick"
)

func TestStringForms(t *testing.T) {
	cases := []struct {
		l    LOID
		want string
	}{
		{Nil, "L0.0"},
		{NewNoKey(1, 0), "L1.0"},
		{NewNoKey(256, 42), "L256.42"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.l, got, c.want)
		}
	}
}

func TestStringWithKeyHasFingerprint(t *testing.T) {
	l := New(256, 7, DeriveKey("obj"))
	s := l.String()
	if len(s) <= len("L256.7") || s[:7] != "L256.7#" {
		t.Fatalf("String() = %q, want fingerprint suffix after L256.7#", s)
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := NewNoKey(512, 99)
	got, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got != orig {
		t.Errorf("Parse(String) = %v, want %v", got, orig)
	}
}

func TestParseIgnoresFingerprint(t *testing.T) {
	l := New(300, 4, DeriveKey("x"))
	got, err := Parse(l.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.SameObject(l) {
		t.Errorf("Parse lost identity: got %v want same object as %v", got, l)
	}
	if got.Key != (Key{}) {
		t.Errorf("Parse should yield zero key, got %x", got.Key)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "256.1", "Lx.1", "L1", "L1.x"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := func(classID, classSpecific uint64, keySeed string) bool {
		l := New(classID, classSpecific, DeriveKey(keySeed))
		buf := l.Marshal(nil)
		if len(buf) != EncodedSize {
			return false
		}
		got, rest, err := Unmarshal(buf)
		return err == nil && len(rest) == 0 && got == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalAppendsToDst(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	l := NewNoKey(1, 2)
	buf := l.Marshal(prefix)
	if len(buf) != 2+EncodedSize || buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatalf("Marshal did not append: len=%d", len(buf))
	}
	got, rest, err := Unmarshal(buf[2:])
	if err != nil || len(rest) != 0 || got != l {
		t.Fatalf("round trip via prefix failed: %v %v %v", got, rest, err)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, _, err := Unmarshal(make([]byte, EncodedSize-1)); err == nil {
		t.Fatal("Unmarshal of short buffer succeeded, want error")
	}
}

func TestUnmarshalLeavesRemainder(t *testing.T) {
	l := NewNoKey(9, 9)
	buf := append(l.Marshal(nil), 0x01, 0x02)
	got, rest, err := Unmarshal(buf)
	if err != nil || got != l {
		t.Fatalf("Unmarshal: %v, %v", got, err)
	}
	if len(rest) != 2 || rest[0] != 0x01 {
		t.Fatalf("remainder = %v, want [1 2]", rest)
	}
}

func TestClassLOID(t *testing.T) {
	inst := New(256, 17, DeriveKey("inst"))
	cls := inst.ClassLOID()
	if cls.ClassID != 256 || cls.ClassSpecific != 0 || cls.Key != (Key{}) {
		t.Errorf("ClassLOID = %+v", cls)
	}
	if !cls.IsClass() {
		t.Error("ClassLOID should satisfy IsClass")
	}
}

func TestIsClass(t *testing.T) {
	if !NewNoKey(256, 0).IsClass() {
		t.Error("class-convention LOID not recognized")
	}
	if NewNoKey(256, 1).IsClass() {
		t.Error("instance LOID claimed to be a class")
	}
	if Nil.IsClass() {
		t.Error("nil LOID claimed to be a class")
	}
}

func TestSameObjectIgnoresKey(t *testing.T) {
	a := New(5, 5, DeriveKey("a"))
	b := New(5, 5, DeriveKey("b"))
	if !a.SameObject(b) {
		t.Error("SameObject should ignore keys")
	}
	if a.SameObject(NewNoKey(5, 6)) {
		t.Error("SameObject matched different instances")
	}
}

func TestIDClearsKey(t *testing.T) {
	a := New(5, 5, DeriveKey("a"))
	if a.ID().Key != (Key{}) {
		t.Error("ID did not clear key")
	}
	if !a.ID().SameObject(a) {
		t.Error("ID changed identity")
	}
}

// TestIdentMatchesID: an identity names the object ID() names, with
// or without the key, and converts back to exactly ID().
func TestIdentMatchesID(t *testing.T) {
	a := New(5, 5, DeriveKey("a"))
	if a.Ident() != a.ID().Ident() {
		t.Error("the key changed the identity")
	}
	if a.Ident().LOID() != a.ID() {
		t.Errorf("Ident().LOID() = %v, want %v", a.Ident().LOID(), a.ID())
	}
	if a.Ident() == New(5, 6, DeriveKey("a")).Ident() {
		t.Error("different instances share an identity")
	}
}

func TestWellKnown(t *testing.T) {
	core := CoreClasses()
	if len(core) != 5 {
		t.Fatalf("CoreClasses returned %d entries", len(core))
	}
	seen := map[LOID]bool{}
	for _, c := range core {
		if !c.IsClass() {
			t.Errorf("%v is not a class LOID", c)
		}
		if !IsCoreClass(c) {
			t.Errorf("IsCoreClass(%v) = false", c)
		}
		if seen[c] {
			t.Errorf("duplicate core class %v", c)
		}
		seen[c] = true
	}
	if IsCoreClass(NewNoKey(FirstUserClassID, 0)) {
		t.Error("user class misidentified as core")
	}
	if IsCoreClass(NewNoKey(ClassIDLegionObject, 3)) {
		t.Error("instance of LegionObject misidentified as core class")
	}
}

func TestSeq(t *testing.T) {
	l := Seq(300, 12)
	if l.ClassID != 300 || l.ClassSpecific != 12 {
		t.Errorf("Seq = %+v", l)
	}
}

func TestDeriveKeyDeterministic(t *testing.T) {
	if DeriveKey("a") != DeriveKey("a") {
		t.Error("DeriveKey not deterministic")
	}
	if DeriveKey("a") == DeriveKey("b") {
		t.Error("DeriveKey collision for distinct seeds")
	}
}

func TestFullStringRoundTrip(t *testing.T) {
	l := New(256, 9, DeriveKey("keyed"))
	got, err := Parse(l.FullString())
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Errorf("FullString round trip = %v, want %v (key preserved)", got, l)
	}
	// Keyless LOIDs degrade to the short form.
	plain := NewNoKey(5, 6)
	if plain.FullString() != plain.String() {
		t.Errorf("keyless FullString = %q", plain.FullString())
	}
	// Short fingerprints still parse, losing the key.
	short, err := Parse(l.String())
	if err != nil || short.Key != (Key{}) || !short.SameObject(l) {
		t.Errorf("short parse = %v, %v", short, err)
	}
	// Corrupt full-length suffix rejected.
	bad := l.FullString()
	bad = bad[:len(bad)-1] + "z"
	if _, err := Parse(bad); err == nil {
		t.Error("corrupt key suffix accepted")
	}
}
