package stats

import (
	"fmt"
	"math"
)

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov comparison.
type KSResult struct {
	// D is the KS statistic: the supremum distance between the two
	// distribution functions.
	D float64
	// Threshold is the critical value at the requested confidence; the
	// samples are deemed to come from different distributions when
	// D > Threshold.
	Threshold float64
}

// Reject reports whether the null hypothesis (same distribution) is
// rejected.
func (r KSResult) Reject() bool { return r.D > r.Threshold }

// ksCritical returns c(alpha) * sqrt((n+m)/(n*m)) for the two-sample KS
// test. Only the standard confidence levels are supported.
func ksCritical(n, m int, alpha float64) float64 {
	var c float64
	switch alpha {
	case 0.10:
		c = 1.22
	case 0.05:
		c = 1.36
	case 0.01:
		c = 1.63
	default:
		panic(fmt.Sprintf("stats: unsupported KS alpha %g", alpha))
	}
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}

// KSTwoSample runs the classical two-sample KS test on raw step ECDFs at
// significance alpha (0.10, 0.05, or 0.01).
func KSTwoSample(a, b []float64, alpha float64) KSResult {
	if len(b) == 0 {
		panic("stats: KS test on empty sample")
	}
	return KSTwoSampleECDF(a, NewECDF(b), alpha)
}

// KSTwoSampleECDF is KSTwoSample with the second sample supplied as a
// pre-built ECDF, for callers that test many samples against one
// reference pool (the per-packet-index sweeps of Figs. 8 and 9): the
// pool is sorted once instead of once per test. The result is
// identical to KSTwoSample on the pool's raw values.
//
// Between two step functions, the supremum distance is attained at a
// jump point of either sample or in the open interval just left of one.
// The left limit at a jump equals the value at the previous distinct
// jump point (or 0 before the first), so evaluating |F_a - F_b| once at
// every distinct value of the union covers both sides of every jump.
// One merge walk over the two sorted samples keeps the counts #a ≤ x
// and #b ≤ x, consumes every duplicate of x, then evaluates. The cost
// is O(|a| log|a| + |pool|): sorting a plus one linear walk.
func KSTwoSampleECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	as, bs := NewECDF(a).sorted, eb.sorted
	na, nb := float64(len(as)), float64(len(bs))
	d := 0.0
	i, j := 0, 0
	for i < len(as) || j < len(bs) {
		_, i, j = nextJump(as, bs, i, j)
		if v := math.Abs(float64(i)/na - float64(j)/nb); v > d {
			d = v
		}
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

// nextJump advances a merge walk over the sorted samples as and bs.
// On entry i and j count the elements of as and bs below the smallest
// value x not yet consumed; nextJump consumes x and every duplicate of
// it and returns x with the counts of elements at or below x. Each call
// consumes at least one element, so the walk ends on any input.
func nextJump(as, bs []float64, i, j int) (x float64, ni, nj int) {
	if j >= len(bs) || (i < len(as) && as[i] <= bs[j]) {
		x = as[i]
		i++
	} else {
		x = bs[j]
		j++
	}
	for i < len(as) && as[i] == x {
		i++
	}
	for j < len(bs) && bs[j] == x {
		j++
	}
	return x, i, j
}

// KSTwoSampleInterp runs the two-sample KS test with sample a converted
// to a continuous distribution by linear interpolation of its ECDF —
// the exact convention the paper describes in footnote 2 ("since we are
// using the KS test to compare two empirical discrete distributions we
// convert one of them to a continuous one using linear interpolation").
// The supremum is evaluated at the jump points of both samples.
func KSTwoSampleInterp(a, b []float64, alpha float64) KSResult {
	if len(b) == 0 {
		panic("stats: KS test on empty sample")
	}
	return KSTwoSampleInterpECDF(a, NewECDF(b), alpha)
}

// KSTwoSampleInterpECDF is KSTwoSampleInterp with the second sample
// supplied as a pre-built ECDF (see KSTwoSampleECDF). The supremum is
// taken over the jump points of both samples; equal points give equal
// distances, so one merge walk over the two sorted samples evaluates
// |F_a - F_b| once per distinct value. The walk keeps the monotone
// counts #a < x, #a ≤ x and #b ≤ x, which give both ECDFs at x without
// a search: the value, and the bracketing jumps of a that the
// interpolation needs, are read off the counts. The cost is
// O(|a| log|a| + |pool|): sorting a plus one linear walk. The result
// is bit-for-bit what ECDF.AtInterpolated and ECDF.At return at each
// point.
func KSTwoSampleInterpECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	if len(a) == 0 || eb.Len() == 0 {
		panic("stats: KS test on empty sample")
	}
	as, bs := NewECDF(a).sorted, eb.sorted
	n := len(as)
	na, nb := float64(n), float64(len(bs))
	d := 0.0
	i, j := 0, 0
	for i < n || j < len(bs) {
		below := i // #a < x
		var x float64
		x, i, j = nextJump(as, bs, i, j)
		// The branches mirror ECDF.AtInterpolated, with its binary
		// search replaced by the counts below (#a < x) and i (#a ≤ x).
		var fa float64
		switch {
		case below == 0 && i == 0: // x < min a
			fa = 0
		case below == 0: // x == min a
			fa = 1 / na
		case i == n: // x >= max a
			fa = 1
		case i > below: // x is a jump point of a
			fa = float64(below+1) / na
		default: // as[below-1] < x < as[below]
			x0, x1 := as[below-1], as[below]
			f0, f1 := float64(below)/na, float64(below+1)/na
			fa = f0 + (f1-f0)*(x-x0)/(x1-x0)
		}
		if v := math.Abs(fa - float64(j)/nb); v > d {
			d = v
		}
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}
