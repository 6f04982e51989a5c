package core

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bindagent"
	"repro/internal/class"
	"repro/internal/demo"
	"repro/internal/host"
	"repro/internal/idl"
	"repro/internal/loid"
	"repro/internal/magistrate"
	"repro/internal/naming"
	"repro/internal/oa"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/rt"
	"repro/internal/wire"
)

// restores decodes b as the saved state of a fresh impl.
func restores(fresh func() rt.Impl) func(b []byte) error {
	return func(b []byte) error { return fresh().RestoreState(b) }
}

func decodes[T any](dec func([]byte) (T, error)) func(b []byte) error {
	return func(b []byte) error {
		_, err := dec(b)
		return err
	}
}

// decoders lists every exported decoder of a state, OPR or reply
// format, and the RestoreState of every core object and composite.
var decoders = map[string]func(b []byte) error{
	"magistrate.UnmarshalLoads":     decodes(magistrate.UnmarshalLoads),
	"magistrate.UnmarshalInstances": decodes(magistrate.UnmarshalInstances),
	"magistrate.RestoreState": restores(func() rt.Impl {
		return magistrate.New(loid.New(loid.ClassIDMagistrate, 5, loid.DeriveKey("forged/magistrate")), persist.NewMemStore())
	}),
	"bindagent.RestoreState": restores(func() rt.Impl {
		return bindagent.New(loid.New(loid.ClassIDBindingAgent, 5, loid.DeriveKey("forged/agent")), 4, oa.Address{})
	}),
	"class.RestoreState": restores(class.NewEmptyClassImpl),
	"class.Metaclass.RestoreState": restores(func() rt.Impl {
		m, err := class.NewMetaclass()
		if err != nil {
			panic(err)
		}
		return m
	}),
	"obs.UnmarshalReport": decodes(obs.UnmarshalReport),
	"obs.UnmarshalTable":  decodes(obs.UnmarshalTable),
	"idl.Unmarshal": func(b []byte) error {
		_, _, err := idl.Unmarshal(b)
		return err
	},
	"naming.UnmarshalContext": decodes(naming.UnmarshalContext),
	"persist.Unmarshal":       decodes(persist.Unmarshal),
	"persist.DecodeOPRBatch":  decodes(persist.DecodeOPRBatch),
	"rt.Composite.RestoreState": restores(func() rt.Impl {
		c, err := rt.NewComposite("Forged", demo.NewCounter(), demo.NewKV())
		if err != nil {
			panic(err)
		}
		return c
	}),
	"wire.AsLOIDList":      decodes(wire.AsLOIDList),
	"wire.AsBindingList":   decodes(wire.AsBindingList),
	"wire.AsStringList":    decodes(wire.AsStringList),
	"host.UnmarshalLoad":   decodes(host.UnmarshalLoad),
	"demo.KV.RestoreState": restores(demo.NewKV),
}

func u32(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
func u64(n uint64) []byte { return binary.BigEndian.AppendUint64(nil, n) }

func cat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// forgedInputs are short inputs whose count or length prefix claims far
// more than follows, each aimed at one decoder.
func forgedInputs() []struct {
	decoder string
	in      []byte
} {
	zeroLOID := make([]byte, loid.EncodedSize)
	return []struct {
		decoder string
		in      []byte
	}{
		{"magistrate.UnmarshalLoads", u64(1 << 62)},
		{"magistrate.UnmarshalInstances", u32(1 << 31)},
		{"magistrate.RestoreState", u64(1 << 40)},
		{"magistrate.RestoreState", cat(u64(0), u64(1<<40))},
		{"magistrate.RestoreState", cat(u64(0), u64(0), u64(1<<40))},
		{"bindagent.RestoreState", cat(zeroLOID, []byte{1, 0, 0xff, 0xff})},
		{"class.RestoreState", cat(zeroLOID, u32(1<<31))},
		{"class.Metaclass.RestoreState", cat(u64(0), u64(1<<60))},
		{"class.Metaclass.RestoreState", cat(u64(0), u64(0), u64(1<<60))},
		{"class.Metaclass.RestoreState", cat(u64(0), u64(0), u64(0), u64(1<<60))},
		{"class.Metaclass.RestoreState", cat(u64(0), u64(0), u64(0), u64(0), u32(1<<30))},
		{"obs.UnmarshalReport", cat([]byte{1}, u64(1<<20))},
		{"obs.UnmarshalReport", cat([]byte{1}, u64(0), u64(1<<20))},
		{"obs.UnmarshalReport", cat([]byte{1}, u64(0), u64(0), u64(1<<20))},
		{"obs.UnmarshalReport", cat([]byte{1}, u64(1), u64(1<<40))},
		{"obs.UnmarshalTable", u64(1 << 20)},
		{"obs.UnmarshalTable", cat(u64(0), u64(1<<20))},
		{"obs.UnmarshalTable", cat(u64(0), u64(1), u64(1<<20))},
		{"obs.UnmarshalTable", cat(u64(1), u64(1<<40))},
		{"idl.Unmarshal", u32(1 << 20)},
		{"idl.Unmarshal", cat(u32(0), u32(1<<16))},
		{"idl.Unmarshal", cat(u32(0), u32(1), u32(0), []byte{0}, u32(1<<12))},
		{"naming.UnmarshalContext", u32(1 << 24)},
		{"naming.UnmarshalContext", cat(u32(1), u32(1<<16))},
		{"persist.Unmarshal", cat(zeroLOID, u32(1<<16))},
		{"persist.Unmarshal", cat(zeroLOID, u32(0), u64(1<<28))},
		{"persist.DecodeOPRBatch", u32(1 << 31)},
		{"persist.DecodeOPRBatch", cat(u32(1), u64(1<<40))},
		{"rt.Composite.RestoreState", cat(u32(2), u64(1<<40))},
		{"wire.AsLOIDList", u32(1 << 31)},
		{"wire.AsBindingList", u32(1 << 31)},
		{"wire.AsStringList", u32(1 << 16)},
		{"wire.AsStringList", cat(u32(1), u32(1<<24))},
		{"host.UnmarshalLoad", u64(1 << 62)},
		{"demo.KV.RestoreState", u32(1<<32 - 1)},
		{"demo.KV.RestoreState", cat(u32(1), u32(1<<30))},
	}
}

// decodeSafely runs dec on b, turning a panic into an error.
func decodeSafely(dec func([]byte) error, b []byte) (err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			err, panicked = fmt.Errorf("panic: %v", p), true
		}
	}()
	return dec(b), false
}

// TestDecodersRejectForgedCounts feeds each decoder short inputs whose
// count or length prefix is forged: each must be refused with an error,
// without a panic and without allocating for what the prefix claims.
func TestDecodersRejectForgedCounts(t *testing.T) {
	for _, c := range forgedInputs() {
		dec, ok := decoders[c.decoder]
		if !ok {
			t.Fatalf("no decoder %s", c.decoder)
		}
		if len(c.in) > 64 {
			t.Fatalf("%s: forged input of %d bytes, want <= 64", c.decoder, len(c.in))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err, panicked := decodeSafely(dec, c.in)
		runtime.ReadMemStats(&after)
		name := c.decoder + " " + hex.EncodeToString(c.in)
		switch {
		case panicked:
			t.Errorf("%s: %v", name, err)
		case err == nil:
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, grew)
		}
	}
}

// FuzzDecoders feeds every input to every decoder, seeded with the
// golden encodings and the forged inputs: a decoder may accept or
// refuse an input, but never panic.
func FuzzDecoders(f *testing.F) {
	golden, err := os.ReadFile("testdata/state_formats.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		_, h, _ := strings.Cut(line, " ")
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, c := range forgedInputs() {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, dec := range decoders {
			dec(b)
		}
	})
}
