package main

import (
	"math"
	"regexp"
	"sort"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, the mean of the two middle values
// for an even count (Python's statistics.median); NaN when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 of xs by the exclusive method, matching
// Python's statistics.quantiles(xs, n=4); it needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// The same integer arithmetic as CPython, clamp included.
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the spread the benchmark is judged by: (Q3−Q1)/median.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// nearestRank is the smallest value with at least a fraction q of xs at
// or below it.
func nearestRank(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	r := int(math.Ceil(q*float64(n) - 1e-9))
	r = max(1, min(r, n))
	return s[r-1]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's rank.
func beyond(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return n - max(1, min(r, n))
}

// tailPercentile is the highest of the standard percentiles that has at
// least ten samples beyond it among n, or 0 when even the median has
// fewer. A timing is reported as its median plus this percentile.
func tailPercentile(n int) int {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if beyond(n, float64(p)/100) >= 10 {
			return p
		}
	}
	return 0
}
