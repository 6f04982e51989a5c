package wire

import (
	"math/rand"
	"testing"

	"repro/internal/loid"
	"repro/internal/oa"
)

// corrupt flips bits in / truncates a valid encoding.
func corrupt(rng *rand.Rand, valid []byte) []byte {
	buf := append([]byte(nil), valid...)
	for j := 0; j < 1+rng.Intn(4); j++ {
		if len(buf) > 0 {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
	}
	if rng.Intn(3) == 0 && len(buf) > 0 {
		buf = buf[:rng.Intn(len(buf))]
	}
	return buf
}

// TestUnmarshalNeverPanics feeds the frame decoder random and
// corrupted inputs and reads every field of what it accepts: it must
// return errors, never panic or hang. A node receiving garbage off the
// network must survive it.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	valid := AppendRequest(nil, KindRequest, 7, loid.NewNoKey(256, 1), "GetBinding", &Env{},
		oa.Single(oa.MemElement(3)), [][]byte{String("x"), Uint64(9)})
	for i := 0; i < 10000; i++ {
		var buf []byte
		if i%2 == 0 {
			buf = make([]byte, rng.Intn(len(valid)*2))
			rng.Read(buf)
		} else {
			buf = corrupt(rng, valid)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %x: %v", buf, r)
				}
			}()
			var f Frame
			if f.Parse(buf) == nil {
				reencode(&f)
			}
		}()
	}
}

// TestValueDecodersNeverPanic fuzzes the typed argument decoders.
func TestValueDecodersNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	decoders := []func([]byte){
		func(b []byte) { AsUint64(b) },
		func(b []byte) { AsInt64(b) },
		func(b []byte) { AsBool(b) },
		func(b []byte) { AsLOID(b) },
		func(b []byte) { AsAddress(b) },
		func(b []byte) { AsBinding(b) },
		func(b []byte) { AsTime(b) },
		func(b []byte) { AsLOIDList(b) },
		func(b []byte) { AsStringList(b) },
	}
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(120))
		rng.Read(buf)
		for _, dec := range decoders {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder panic on %x: %v", buf, r)
					}
				}()
				dec(buf)
			}()
		}
	}
}
