package stats

import (
	"fmt"
	"math"
	"testing"

	"csmabw/internal/sim"
)

// refKSTwoSampleECDF is the search-based step-vs-step kernel that
// KSTwoSampleECDF replaced: at every point of either sample it
// evaluates |F_a - F_b| and its left limit with two ECDF lookups. It
// is kept as the reference the merge walk must match bit for bit.
func refKSTwoSampleECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	ea := NewECDF(a)
	d := 0.0
	check := func(x float64) {
		if v := math.Abs(ea.At(x) - eb.At(x)); v > d {
			d = v
		}
		below := math.Nextafter(x, math.Inf(-1))
		if v := math.Abs(ea.At(below) - eb.At(below)); v > d {
			d = v
		}
	}
	for _, x := range ea.sorted {
		check(x)
	}
	for _, x := range eb.sorted {
		check(x)
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

// refKSTwoSampleInterpECDF is the search-based interpolated kernel that
// KSTwoSampleInterpECDF replaced: every merged point, duplicates
// included, pays one ECDF.AtInterpolated and one ECDF.At lookup.
func refKSTwoSampleInterpECDF(a []float64, eb *ECDF, alpha float64) KSResult {
	ea := NewECDF(a)
	d := 0.0
	ai, bi := 0, 0
	for ai < len(ea.sorted) || bi < len(eb.sorted) {
		var x float64
		if bi >= len(eb.sorted) || (ai < len(ea.sorted) && ea.sorted[ai] <= eb.sorted[bi]) {
			x = ea.sorted[ai]
			ai++
		} else {
			x = eb.sorted[bi]
			bi++
		}
		if v := math.Abs(ea.AtInterpolated(x) - eb.At(x)); v > d {
			d = v
		}
	}
	return KSResult{D: d, Threshold: ksCritical(len(a), eb.Len(), alpha)}
}

// ksShape draws a column of nCol and a pool of nPool slot-quantised
// delays: the pool takes one of levels values, the column one of the
// lowest levels/2 (a transient sits below steady state). The levels are
// multiples of an inexact decimal, so the interpolation arithmetic sees
// real rounding.
func ksShape(r *sim.Rand, nCol, nPool, levels int) (col, pool []float64) {
	level := func(k int) float64 { return 1e-4 + float64(k)*9e-6 }
	col = make([]float64, nCol)
	for i := range col {
		col[i] = level(r.Intn(levels/2 + 1))
	}
	pool = make([]float64, nPool)
	for i := range pool {
		pool[i] = level(r.Intn(levels))
	}
	return col, pool
}

// ksCase is one (column, pool) pair for the equivalence tests.
type ksCase struct {
	kind    string
	a, pool []float64
}

// ksCases returns n random cases that rotate through the shapes the
// merge walk must get right: untied samples, heavy ties, an all-equal
// pool, single-element samples, disjoint supports, signed zeros and a
// column lying inside one tie run of the pool. Three Fig. 8-shaped
// cases (200 vs 60 000 points, ~1.6 k distinct) close the set.
func ksCases(n int) []ksCase {
	r := sim.NewRand(2024)
	draw := func(size int, tie bool, lo, span float64) []float64 {
		xs := make([]float64, size)
		for i := range xs {
			v := r.Float64() * span
			if tie {
				v = math.Floor(v)
			}
			xs[i] = lo + v
		}
		return xs
	}
	size := func() int { return 1 + r.Intn(40) }
	var cases []ksCase
	for len(cases) < n {
		var c ksCase
		switch len(cases) % 7 {
		case 0:
			c = ksCase{"untied", draw(size(), false, -1, 3), draw(size(), false, 0, 3)}
		case 1:
			c = ksCase{"heavy ties", draw(size(), true, 0, 4), draw(size(), true, 0, 1+float64(r.Intn(4)))}
		case 2:
			v := math.Floor(r.Float64() * 4)
			pool := make([]float64, size())
			for i := range pool {
				pool[i] = v
			}
			c = ksCase{"all-equal pool", draw(size(), r.Intn(2) == 0, 0, 4), pool}
		case 3:
			na, nb := 1, 1
			switch r.Intn(3) {
			case 0:
				na = size()
			case 1:
				nb = size()
			}
			tie := r.Intn(2) == 0
			c = ksCase{"single element", draw(na, tie, 0, 3), draw(nb, tie, 0, 3)}
		case 4:
			tie := r.Intn(2) == 0
			a, pool := draw(size(), tie, 0, 4), draw(size(), tie, 10, 4)
			if r.Intn(2) == 0 {
				a, pool = pool, a
			}
			c = ksCase{"disjoint supports", a, pool}
		case 5:
			zeros := []float64{-1, math.Copysign(0, -1), 0, 1}
			pick := func(size int) []float64 {
				xs := make([]float64, size)
				for i := range xs {
					xs[i] = zeros[r.Intn(len(zeros))]
				}
				return xs
			}
			c = ksCase{"signed zeros", pick(size()), pick(size())}
		case 6:
			pool := draw(size(), true, 0, 5)
			v := pool[r.Intn(len(pool))]
			for i := 0; i < 1+r.Intn(20); i++ {
				pool = append(pool, v)
			}
			a := make([]float64, size())
			for i := range a {
				a[i] = v
			}
			c = ksCase{"column inside a pool tie run", a, pool}
		}
		cases = append(cases, c)
	}
	for i := 0; i < 3; i++ {
		a, pool := ksShape(r, 200, 60000, 1634)
		cases = append(cases, ksCase{"fig08 shape", a, pool})
	}
	return cases
}

// assertKSBitIdentical runs kernel and ref on every case and fails on
// the first result whose D or threshold differs in any bit.
func assertKSBitIdentical(t *testing.T, kernel, ref func([]float64, *ECDF, float64) KSResult) {
	t.Helper()
	for i, c := range ksCases(5600) {
		eb := NewECDF(c.pool)
		got, want := kernel(c.a, eb, 0.05), ref(c.a, eb, 0.05)
		if math.Float64bits(got.D) != math.Float64bits(want.D) ||
			math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
			t.Fatalf("case %d (%s): got %+v, reference %+v\na=%v\npool=%v",
				i, c.kind, got, want, c.a, c.pool)
		}
	}
}

// TestKSInterpMatchesReference holds the interpolated merge walk to the
// search-based kernel it replaced, bit for bit.
func TestKSInterpMatchesReference(t *testing.T) {
	assertKSBitIdentical(t, KSTwoSampleInterpECDF, refKSTwoSampleInterpECDF)
}

// TestKSStepMatchesReference holds the step merge walk to the
// search-based kernel it replaced, bit for bit.
func TestKSStepMatchesReference(t *testing.T) {
	assertKSBitIdentical(t, KSTwoSampleECDF, refKSTwoSampleECDF)
}

// ksSink keeps the benchmarked call from being optimised away.
var ksSink KSResult

// BenchmarkKSTwoSampleInterpECDF times one per-index KS test at the
// shapes of the Fig. 8 and Fig. 9 sweeps: a 200-point column against a
// 60 000-value pool with ~1.6 k distinct values (fig08), and against a
// 30 000-value pool with ~23.6 k distinct values (fig09).
func BenchmarkKSTwoSampleInterpECDF(b *testing.B) {
	for _, s := range []struct {
		name          string
		nPool, levels int
	}{
		{"fig08", 60000, 1634},
		{"fig09", 30000, 60000},
	} {
		col, pool := ksShape(sim.NewRand(7), 200, s.nPool, s.levels)
		eb := NewECDF(pool)
		b.Run(fmt.Sprintf("%s/pool=%d", s.name, s.nPool), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ksSink = KSTwoSampleInterpECDF(col, eb, 0.05)
			}
		})
	}
}
