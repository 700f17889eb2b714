package bench

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice; 0 for an empty one.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tails are the tail percentiles a report may quote, highest first,
// with the share of samples beyond each in parts per thousand.
var tails = []struct {
	percentile float64
	beyond     int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// SupportedTail returns the highest percentile that still has at least
// ten of n samples beyond it, which is the highest one worth quoting;
// 50 when even p75 has fewer.
func SupportedTail(n int) float64 {
	for _, t := range tails {
		if n*t.beyond >= 10*1000 {
			return t.percentile
		}
	}
	return 50
}

// Median returns the median of vs without reordering it.
func Median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), because
// that is the spread the driver computes.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
