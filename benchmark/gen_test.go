package main

import "testing"

func TestStreamDigestIsAFunctionOfTheSeed(t *testing.T) {
	mixes := []opMix{{}, {variantPermille: 200}, {sequential: true}, {variantPermille: 50}}
	for _, mix := range mixes {
		a := streamDigest(1, 2, mix, 2048, 4096)
		if b := streamDigest(1, 2, mix, 2048, 4096); a != b {
			t.Errorf("%+v: same seed gave digests %x and %x", mix, a, b)
		}
		if mix.sequential && mix.variantPermille == 0 {
			continue // a round-robin walk draws nothing from the seed
		}
		if b := streamDigest(2, 2, mix, 2048, 4096); a == b {
			t.Errorf("%+v: seeds 1 and 2 gave the same digest %x", mix, a)
		}
	}
}

func TestCallersDrawDistinctStreams(t *testing.T) {
	a, b := newOpStream(1, 0, opMix{}, 1<<20), newOpStream(1, 1, opMix{}, 1<<20)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("callers 0 and 1 agree on %d of 1000 ops", same)
	}
}

func TestOpMixShares(t *testing.T) {
	s := newOpStream(3, 0, opMix{variantPermille: 200}, 64)
	variants, seen := 0, make(map[int]bool)
	const n = 100000
	for i := 0; i < n; i++ {
		o := s.next()
		if o.obj < 0 || o.obj >= 64 {
			t.Fatalf("op targets object %d of 64", o.obj)
		}
		seen[o.obj] = true
		if o.variant {
			variants++
		}
	}
	if share := float64(variants) / n; share < 0.19 || share > 0.21 {
		t.Errorf("variant share %.3f, want 0.2", share)
	}
	if len(seen) != 64 {
		t.Errorf("uniform pick reached %d of 64 objects", len(seen))
	}
	seq := newOpStream(3, 0, opMix{sequential: true}, 5)
	for i := 0; i < 12; i++ {
		if o := seq.next(); o.obj != i%5 {
			t.Fatalf("sequential op %d targets %d", i, o.obj)
		}
	}
}
