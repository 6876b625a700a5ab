package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 100, 10000} {
		var h Histogram
		vals := make([]int64, n)
		for i := range vals {
			// Log-uniform over 1 ns .. ~10 s, the range latencies span.
			vals[i] = int64(math.Exp(rng.Float64() * math.Log(1e10)))
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := float64(vals[int(math.Ceil(q*float64(n)))-1])
			got := h.Quantile(q)
			if math.Abs(got-want) > want/histSub+0.5 {
				t.Errorf("n=%d q=%v: got %v, want %v within 1/%d", n, q, got, want, histSub)
			}
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 2*histSub; v++ {
		h.Record(v)
	}
	for v := int64(0); v < 2*histSub; v++ {
		q := float64(v+1) / float64(2*histSub)
		if got := h.Quantile(q); got != float64(v) {
			t.Fatalf("q=%v: got %v, want %d", q, got, v)
		}
	}
}

func TestHistogramBucketBounds(t *testing.T) {
	for _, v := range []int64{128, 129, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := histIndex(v)
		if lo := histLower(i); v < lo || (i+1 < histBuckets && v >= histLower(i+1)) {
			t.Errorf("v=%d in bucket %d starting at %d", v, i, lo)
		}
	}
	if got := histIndex(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("max value maps to bucket %d, want the last, %d", got, histBuckets-1)
	}
}
