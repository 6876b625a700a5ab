package main

import (
	"math/bits"
	"sync/atomic"
)

// histSub is the number of linear sub-buckets per power of two. 64 keeps
// every recorded value within 1/64 (1.6%) of its bucket's bounds.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub // through the bucket of math.MaxInt64
)

// Histogram is a fixed-memory log-linear histogram of non-negative int64
// values (nanoseconds here). Record is lock-free, so the sink's HAU
// goroutine can record while the benchmark reads it between phases; its memory
// does not grow with the number of samples, unlike a latency slice.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

// histIndex maps v to its bucket: values below 2*histSub have a bucket
// each, larger ones keep their top histSubBits+1 significant bits.
func histIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSub {
		return int(u)
	}
	shift := bits.Len64(u) - histSubBits - 1
	return (shift+1)*histSub + int(u>>shift) - histSub
}

// histLower returns the smallest value mapping to bucket i.
func histLower(i int) int64 {
	if i < 2*histSub {
		return int64(i)
	}
	shift := i/histSub - 1
	return int64(uint64(i%histSub+histSub) << shift)
}

// Record adds one value.
func (h *Histogram) Record(v int64) {
	h.counts[histIndex(v)].Add(1)
	h.n.Add(1)
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Quantile returns the q-quantile (0 < q <= 1) as the midpoint of the
// bucket holding the ceil(q*n)-th smallest value, or 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			lo := histLower(i)
			hi := histLower(i + 1)
			if i+1 >= histBuckets {
				hi = lo
			}
			return float64(lo) + float64(hi-1-lo)/2
		}
	}
	return float64(histLower(histBuckets - 1))
}
