package stats

import (
	"math"
	"testing"
	"testing/quick"

	"csmabw/internal/sim"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Variance-2.5) > 1e-12 {
		t.Errorf("variance = %g, want 2.5", s.Variance)
	}
	if math.Abs(s.StdDev()-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %g", s.StdDev())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	if !math.IsInf(s.CI95HalfWidth(), 1) {
		t.Error("CI of empty sample should be infinite")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Variance != 0 || s.Min != 7 || s.Max != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestCI95Shrinks(t *testing.T) {
	r := sim.NewRand(1)
	mk := func(n int) float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()
		}
		return Summarize(xs).CI95HalfWidth()
	}
	if mk(10000) >= mk(100) {
		t.Error("CI should shrink with sample size")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	tests := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); got != tt.want {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("median of {0,10} = %g, want 5", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { Quantile(nil, 0.5) },
		"q>1":   func() { Quantile([]float64{1}, 1.5) },
		"q<0":   func() { Quantile([]float64{1}, -0.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestECDFStep(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.9, 0.75}, {3, 1}, {10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", tt.x, got, tt.want)
		}
	}
	if e.Len() != 4 {
		t.Errorf("Len = %d", e.Len())
	}
}

func TestECDFInterpolated(t *testing.T) {
	e := NewECDF([]float64{0, 10})
	// F(0)=0.5, F(10)=1, linear in between.
	if got := e.AtInterpolated(5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("interp at 5 = %g, want 0.75", got)
	}
	if got := e.AtInterpolated(-1); got != 0 {
		t.Errorf("interp below support = %g", got)
	}
	if got := e.AtInterpolated(11); got != 1 {
		t.Errorf("interp above support = %g", got)
	}
	if got := e.AtInterpolated(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("interp at first point = %g, want 0.5", got)
	}
}

func TestECDFInterpolatedMonotone(t *testing.T) {
	r := sim.NewRand(2)
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = r.Float64() * 10
	}
	e := NewECDF(xs)
	prev := -1.0
	for x := -1.0; x < 12; x += 0.01 {
		v := e.AtInterpolated(x)
		if v < prev-1e-12 {
			t.Fatalf("interpolated ECDF decreased at %g", x)
		}
		if v < 0 || v > 1 {
			t.Fatalf("interpolated ECDF out of [0,1] at %g: %g", x, v)
		}
		prev = v
	}
}

func TestKSIdenticalSamples(t *testing.T) {
	r := sim.NewRand(3)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64()
	}
	res := KSTwoSample(xs, xs, 0.05)
	if res.D != 0 {
		t.Errorf("KS D of identical samples = %g", res.D)
	}
	if res.Reject() {
		t.Error("identical samples rejected")
	}
}

func TestKSSameDistributionAccepted(t *testing.T) {
	r := sim.NewRand(4)
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Exp(1)
		}
		return xs
	}
	rejected := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		if KSTwoSample(mk(300), mk(300), 0.05).Reject() {
			rejected++
		}
	}
	// At alpha=0.05 we expect ~5% false rejections.
	if rejected > trials/4 {
		t.Errorf("%d/%d same-distribution pairs rejected", rejected, trials)
	}
}

func TestKSDifferentDistributionsRejected(t *testing.T) {
	r := sim.NewRand(5)
	a := make([]float64, 500)
	b := make([]float64, 500)
	for i := range a {
		a[i] = r.Exp(1)
		b[i] = r.Exp(2) // different mean
	}
	if !KSTwoSample(a, b, 0.05).Reject() {
		t.Error("clearly different distributions not rejected")
	}
	if !KSTwoSampleInterp(a, b, 0.05).Reject() {
		t.Error("interp variant did not reject different distributions")
	}
}

func TestKSShiftDetected(t *testing.T) {
	n := 400
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i) / float64(n)
		b[i] = float64(i)/float64(n) + 0.5
	}
	res := KSTwoSample(a, b, 0.05)
	if res.D < 0.45 {
		t.Errorf("KS D = %g for a 0.5 shift of U(0,1), want ~0.5", res.D)
	}
}

func TestKSThresholdScales(t *testing.T) {
	a := ksCritical(100, 100, 0.05)
	b := ksCritical(1000, 1000, 0.05)
	if b >= a {
		t.Error("threshold should shrink with sample size")
	}
	if ksCritical(100, 100, 0.01) <= ksCritical(100, 100, 0.05) {
		t.Error("stricter alpha should raise threshold")
	}
}

func TestKSInterpCloseToStep(t *testing.T) {
	// With large samples the interpolated statistic should be close to
	// the step statistic.
	r := sim.NewRand(6)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = r.Exp(1)
		b[i] = r.Exp(1.3)
	}
	d1 := KSTwoSample(a, b, 0.05).D
	d2 := KSTwoSampleInterp(a, b, 0.05).D
	if math.Abs(d1-d2) > 0.05 {
		t.Errorf("step D=%g vs interp D=%g differ too much", d1, d2)
	}
}

func TestKSPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty a":   func() { KSTwoSample(nil, []float64{1}, 0.05) },
		"empty b":   func() { KSTwoSampleInterp([]float64{1}, nil, 0.05) },
		"bad alpha": func() { KSTwoSample([]float64{1}, []float64{2}, 0.2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 0.2, 0.5, 0.9, -1, 2}, 0, 1, 10)
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	if c := h.BinCenter(0); math.Abs(c-0.05) > 1e-12 {
		t.Errorf("BinCenter(0) = %g", c)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram([]float64{0.15, 0.15, 0.16, 0.8}, 0, 1, 10)
	if h.Mode() != 1 {
		t.Errorf("Mode = %d, want 1", h.Mode())
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero bins": func() { NewHistogram(nil, 0, 1, 0) },
		"bad range": func() { NewHistogram(nil, 1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAutocorrelationLagZero(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3}
	if got := Autocorrelation(xs, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("lag-0 autocorrelation = %g, want 1", got)
	}
}

func TestAutocorrelationAlternating(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	if got := Autocorrelation(xs, 1); got > -0.9 {
		t.Errorf("alternating series lag-1 = %g, want ~-1", got)
	}
}

func TestAutocorrelationWhiteNoise(t *testing.T) {
	r := sim.NewRand(42)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if got := Autocorrelation(xs, 1); math.Abs(got) > 0.05 {
		t.Errorf("white noise lag-1 = %g, want ~0", got)
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// Strongly persistent series: positive lag-1 correlation.
	r := sim.NewRand(7)
	xs := make([]float64, 2000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.9*xs[i-1] + (r.Float64() - 0.5)
	}
	if got := Autocorrelation(xs, 1); got < 0.7 {
		t.Errorf("AR(1) lag-1 = %g, want > 0.7", got)
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	if got := Autocorrelation([]float64{3, 3, 3}, 1); got != 0 {
		t.Errorf("constant series = %g, want 0 (zero variance)", got)
	}
}

func TestAutocorrelationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lag out of range")
		}
	}()
	Autocorrelation([]float64{1, 2}, 2)
}

// Property: ECDF.At is within [0,1] and monotone for arbitrary samples.
func TestECDFProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		prev := 0.0
		for _, x := range e.sorted {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return e.At(e.sorted[len(e.sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceKSD computes the two-sample step-vs-step KS statistic the
// slow, obviously-correct way: |Fa - Fb| is evaluated at every sample
// point of either sample and as the left limit just below it (counting
// with < instead of <=), with no ECDF machinery shared with the
// implementation under test.
func bruteForceKSD(a, b []float64) float64 {
	pts := append(append([]float64(nil), a...), b...)
	frac := func(xs []float64, x float64, strict bool) float64 {
		n := 0
		for _, v := range xs {
			if v < x || (!strict && v == x) {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	d := 0.0
	for _, x := range pts {
		if v := math.Abs(frac(a, x, false) - frac(b, x, false)); v > d {
			d = v
		}
		if v := math.Abs(frac(a, x, true) - frac(b, x, true)); v > d {
			d = v
		}
	}
	return d
}

// TestKSSupremumBothJumpSets is the regression test for the supremum
// evaluation: the step-vs-step statistic must examine both sides of the
// jump points of *both* samples. The fixture places the reference
// pool's only jump strictly between two jumps of a, where the distance
// just below the pool's jump is as large as anywhere else — a point the
// evaluation must not miss.
func TestKSSupremumBothJumpSets(t *testing.T) {
	a := []float64{0, 0, 0, 100}
	b := []float64{50}
	got := KSTwoSample(a, b, 0.05).D
	want := bruteForceKSD(a, b)
	if got != want {
		t.Fatalf("KS D = %g, brute force %g", got, want)
	}
}

// TestKSMatchesBruteForce cross-validates the optimized supremum search
// against the brute-force evaluation on random samples, including heavy
// ties (integer-valued draws), tiny samples, and disjoint supports.
// Both sides divide the same integer counts, so they must agree bit for
// bit.
func TestKSMatchesBruteForce(t *testing.T) {
	r := sim.NewRand(77)
	draw := func(n int, tie bool, shift float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			v := r.Float64()*4 + shift
			if tie {
				v = math.Floor(v)
			}
			xs[i] = v
		}
		return xs
	}
	for trial := 0; trial < 200; trial++ {
		na, nb := 1+r.Intn(30), 1+r.Intn(30)
		tieA, tieB := r.Intn(2) == 0, r.Intn(2) == 0
		shift := 0.0
		if r.Intn(3) == 0 {
			shift = 10 // disjoint supports
		}
		a := draw(na, tieA, 0)
		b := draw(nb, tieB, shift)
		got := KSTwoSample(a, b, 0.05).D
		want := bruteForceKSD(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: KS D = %g, brute force %g (a=%v b=%v)", trial, got, want, a, b)
		}
	}
}

func TestSigmaInflation(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0, 1}, {-0.5, 1}, {math.NaN(), 1},
		{0.25, 2}, // 1 + sqrt(1)
		{1, 3},    // 1 + sqrt(4) = 3, the clamp boundary
		{1.5, 3},  // p clamped into [0, 1] first
		{100, 3},  // far out of range still saturates at 3
	}
	for _, tt := range cases {
		if got := SigmaInflation(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("SigmaInflation(%g) = %g, want %g", tt.p, got, tt.want)
		}
	}
	// Monotone non-decreasing over the whole loss range.
	prev := 0.0
	for p := 0.0; p <= 1.0; p += 0.01 {
		f := SigmaInflation(p)
		if f < prev {
			t.Fatalf("SigmaInflation not monotone at p=%g: %g < %g", p, f, prev)
		}
		prev = f
	}
}

func TestEffectiveCI95HalfWidth(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	base := s.CI95HalfWidth()
	if got := s.EffectiveCI95HalfWidth(0); got != base {
		t.Errorf("loss-free effective CI %g != plain CI %g", got, base)
	}
	if got := s.EffectiveCI95HalfWidth(0.25); math.Abs(got-2*base) > 1e-12 {
		t.Errorf("effective CI at p=0.25 = %g, want %g", got, 2*base)
	}
	// The inflated half-width is never narrower than the plain one.
	if err := quick.Check(func(p float64) bool {
		return s.EffectiveCI95HalfWidth(p) >= base
	}, nil); err != nil {
		t.Error(err)
	}
}
