package main

import (
	"math"
	"math/bits"
	"sort"
)

// latHist is a log-linear latency histogram over nanoseconds: values
// below 256 are exact, above that every octave has 256 sub-buckets, so
// a bucket is at most 0.4 % wide. One caller owns one histogram (no
// locks); merge folds them. It replaces a per-op sample slice, whose
// size would follow throughput and leak into rss_mb.
type latHist struct {
	counts [histOctaves * histSub]uint64
	n      uint64
	sum    uint64
}

const (
	histSub     = 256
	histOctaves = 34 // covers up to 2^41 ns (~36 min); larger values clamp
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 9 // ns>>e lies in [256, 512)
	idx := (e+1)*histSub + int(ns>>uint(e)) - histSub
	if idx >= histOctaves*histSub {
		return histOctaves*histSub - 1
	}
	return idx
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	return float64(uint64(histSub+i%histSub) << e), float64(uint64(1) << e)
}

func (h *latHist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
	h.sum += uint64(ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside the bucket that holds it, so the value moves continuously
// between runs instead of snapping to bucket edges.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			lo, width := histBounds(i)
			return lo + width*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(len(h.counts) - 1)
	return lo + width
}

// beyond reports how many samples lie above the q-quantile's rank: a
// percentile is only reported as resolved with at least ten beyond it.
func (h *latHist) beyond(q float64) uint64 {
	return h.n - 1 - uint64(q*float64(h.n-1))
}

// quantileOf is the exact q-quantile (linear interpolation between
// order statistics) of a small sample: cycle times, window rates, probe
// batches.
func quantileOf(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantileOf(vals, 0.5) }

// windowRates turns per-caller per-window op counts into one rate per
// window (ops/s summed over callers).
func windowRates(perCaller [][]uint64, windowSeconds float64) []float64 {
	if len(perCaller) == 0 {
		return nil
	}
	rates := make([]float64, len(perCaller[0]))
	for _, counts := range perCaller {
		for w, c := range counts {
			rates[w] += float64(c) / windowSeconds
		}
	}
	return rates
}

// iqrSpread is (Q3 − Q1) / median with the same exclusive quartiles
// Python's statistics.quantiles(values, n=4) produces, which is what
// the acceptance check of BENCHMARK.json is computed with.
func iqrSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	cut := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((cut(3) - cut(1)) / med)
}
