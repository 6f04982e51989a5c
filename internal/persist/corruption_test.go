package persist

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/loid"
)

// TestOPRUnmarshalNeverPanics fuzzes the OPR decoder with random and
// corrupted blobs: vault files can be damaged on disk and activation
// must fail gracefully.
func TestOPRUnmarshalNeverPanics(t *testing.T) {
	valid := OPR{
		LOID:  loid.New(256, 7, loid.DeriveKey("o")),
		Impl:  "composite(a,b)",
		State: []byte("some saved state bytes"),
		Saved: time.Unix(1000, 0),
	}.Marshal(nil)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8000; i++ {
		var buf []byte
		if i%2 == 0 {
			buf = make([]byte, rng.Intn(len(valid)*2))
			rng.Read(buf)
		} else {
			buf = append([]byte(nil), valid...)
			for j := 0; j < 1+rng.Intn(4); j++ {
				if len(buf) > 0 {
					buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
				}
			}
			if rng.Intn(3) == 0 && len(buf) > 0 {
				buf = buf[:rng.Intn(len(buf))]
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", buf, r)
				}
			}()
			Unmarshal(buf)
		}()
	}
}

// TestOPRUnmarshalBoundsImplLen: a malformed record claiming a huge
// impl name is rejected before any allocation.
func TestOPRUnmarshalBoundsImplLen(t *testing.T) {
	buf := OPR{LOID: loid.NewNoKey(256, 1), Impl: "x"}.Marshal(nil)
	// The impl length field sits right after the LOID encoding.
	loidLen := len(loid.LOID{}.Marshal(nil))
	buf[loidLen] = 0xFF // impl length becomes 0xFF000001 — way past maxImplLen
	if _, err := Unmarshal(buf); err == nil {
		t.Fatal("oversized impl length accepted")
	}
}
