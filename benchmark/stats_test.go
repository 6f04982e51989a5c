package main

import (
	"math"
	"sort"
	"testing"
)

func TestHistQuantileMatchesExact(t *testing.T) {
	g := newStream(7, 0)
	var h latHist
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 100 ns .. 100 ms, the range ops live in.
		v := int64(100 * math.Pow(1e6, float64(g.next()>>11)/(1<<53)))
		h.observe(v)
		exact = append(exact, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := h.quantile(q), quantileOf(exact, q)
		if math.Abs(got-want)/want > 0.005 {
			t.Errorf("q%.3f: histogram %v, exact %v", q, got, want)
		}
	}
	if got := h.beyond(0.99); got < 1990 || got > 2010 {
		t.Errorf("beyond(0.99) of 200000 samples = %d", got)
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	// Every value maps into the bucket whose bounds hold it, and bucket
	// indexes never decrease with the value.
	prev := 0
	for _, v := range []uint64{0, 1, 255, 256, 257, 511, 512, 513, 1023, 1024, 99999, 1 << 20, 1<<30 + 12345, 1 << 40} {
		i := histBucket(v)
		lo, width := histBounds(i)
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d in bucket %d with bounds [%v, %v)", v, i, lo, lo+width)
		}
		if i < prev {
			t.Errorf("bucket index fell from %d to %d at %d", prev, i, v)
		}
		prev = i
	}
	if i := histBucket(math.MaxUint64); i != histOctaves*histSub-1 {
		t.Errorf("huge value not clamped: bucket %d", i)
	}
}

func TestQuantileOfSmallSamples(t *testing.T) {
	vals := []float64{40, 10, 30, 20}
	if got := median(vals); got != 25 {
		t.Errorf("median = %v, want 25", got)
	}
	if got := quantileOf(vals, 1); got != 40 {
		t.Errorf("max = %v, want 40", got)
	}
	if !sort.Float64sAreSorted([]float64{vals[1], vals[3], vals[2], vals[0]}) || vals[0] != 40 {
		t.Error("quantileOf must not reorder its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number that looks measured")
	}
}

func TestWindowMedian(t *testing.T) {
	// Two callers, three 2 s windows; one window was disturbed.
	rates := windowRates([][]uint64{{100, 10, 120}, {100, 30, 80}}, 2)
	want := []float64{100, 20, 100}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	if got := median(rates); got != 100 {
		t.Errorf("window median = %v: one bad window must not move it", got)
	}
}

func TestIQRSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrSpread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := iqrSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of three = %v, want 1", got)
	}
}
