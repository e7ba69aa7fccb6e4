package main

import (
	"math"
	"sort"
	"time"
)

var epoch = time.Now()

// nowNs is monotonic nanoseconds since process start.
func nowNs() int64 { return int64(time.Since(epoch)) }

func secondsSince(startNs int64) float64 { return float64(nowNs()-startNs) / 1e9 }

// median returns the middle value (mean of the two middle values for an
// even count), or NaN when empty. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank method, or NaN when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), which is
// what the pipeline's spread check uses. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// timeBatches runs fn iters times per batch and returns the median batch
// mean in nanoseconds per call: the estimator every micro-probe uses, so
// one descheduled batch cannot move the reported value.
func timeBatches(batches, iters int, fn func(i int)) float64 {
	means := make([]float64, batches)
	k := 0
	for b := range means {
		t := nowNs()
		for i := 0; i < iters; i++ {
			fn(k)
			k++
		}
		means[b] = float64(nowNs()-t) / float64(iters)
	}
	return median(means)
}
