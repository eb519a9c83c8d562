package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice
// by the nearest-rank method: the smallest sample with at least q of
// the samples at or below it. It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method. It needs at least two samples; with
// one it returns that sample three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// spread is the interquartile range of xs as a share of its median:
// the figure the benchmark's bounds are compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// ratio divides, returning 0 when the base is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
