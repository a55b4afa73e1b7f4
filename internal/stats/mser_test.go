package stats

import (
	"math"
	"testing"

	"csmabw/internal/sim"
)

// warmupSeries builds a series with an initial transient that rises from
// lowStart to the steady mean over warm samples, then fluctuates around
// the steady mean.
func warmupSeries(r *sim.Rand, n, warm int, lowStart, steady, noise float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		base := steady
		if i < warm {
			frac := float64(i) / float64(warm)
			base = lowStart + (steady-lowStart)*frac
		}
		xs[i] = base + (r.Float64()-0.5)*2*noise
	}
	return xs
}

func TestMSERDetectsWarmup(t *testing.T) {
	r := sim.NewRand(1)
	xs := warmupSeries(r, 400, 60, 0.0, 10.0, 0.3)
	res := MSERm(xs, 1)
	if res.Cut < 30 || res.Cut > 120 {
		t.Errorf("MSER cut = %d, expected near the 60-sample warm-up", res.Cut)
	}
}

func TestMSERNoWarmup(t *testing.T) {
	r := sim.NewRand(2)
	xs := warmupSeries(r, 400, 0, 10, 10, 0.3)
	res := MSERm(xs, 1)
	// Stationary series: the cut should be small relative to the series.
	if res.Cut > 80 {
		t.Errorf("MSER cut = %d on a stationary series", res.Cut)
	}
}

func TestMSERBatching(t *testing.T) {
	r := sim.NewRand(3)
	xs := warmupSeries(r, 400, 60, 0, 10, 0.3)
	res := MSERm(xs, 2)
	if res.Cut%2 != 0 {
		t.Errorf("MSER-2 cut %d not a multiple of the batch size", res.Cut)
	}
	if res.Batches != 200 {
		t.Errorf("batches = %d, want 200", res.Batches)
	}
}

func TestMSERShortSeries(t *testing.T) {
	res := MSERm([]float64{1}, 2)
	if res.Cut != 0 {
		t.Errorf("cut = %d on a too-short series", res.Cut)
	}
}

func TestMSERPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for batch size 0")
		}
	}()
	MSERm([]float64{1, 2}, 0)
}

func TestTruncateMSER(t *testing.T) {
	r := sim.NewRand(4)
	xs := warmupSeries(r, 300, 50, 0, 10, 0.2)
	trunc := TruncateMSER(xs, 2)
	if len(trunc) >= len(xs) {
		t.Error("truncation removed nothing from a warm-up series")
	}
	// The truncated series' mean should be closer to the steady value.
	if math.Abs(Mean(trunc)-10) >= math.Abs(Mean(xs)-10) {
		t.Error("truncated mean no closer to steady state")
	}
}

func TestTransientLength(t *testing.T) {
	// Means ramping to 1.0.
	means := []float64{0.5, 0.7, 0.85, 0.93, 0.97, 0.995, 1.0, 1.005, 0.995}
	tests := []struct {
		tol  float64
		want int
	}{
		{0.10, 4}, // first index within 10% and staying: 0.93
		{0.01, 6}, // 0.995 onward
	}
	for _, tt := range tests {
		if got := TransientLength(means, 1.0, tt.tol); got != tt.want {
			t.Errorf("tol %.2f: length = %d, want %d", tt.tol, got, tt.want)
		}
	}
}

func TestTransientLengthStricterIsLonger(t *testing.T) {
	means := make([]float64, 200)
	for i := range means {
		means[i] = 1 - math.Exp(-float64(i)/30)
	}
	l1 := TransientLength(means, 1, 0.1)
	l2 := TransientLength(means, 1, 0.01)
	if l2 <= l1 {
		t.Errorf("0.01 tolerance length %d <= 0.1 tolerance %d", l2, l1)
	}
}

func TestTransientLengthNeverSettles(t *testing.T) {
	means := []float64{0.1, 0.2, 0.1, 0.2}
	if got := TransientLength(means, 1, 0.1); got != len(means) {
		t.Errorf("never-settling series returned %d", got)
	}
}

func TestTransientLengthExcursionResets(t *testing.T) {
	// A series that enters the band, leaves, then re-enters: the length
	// must reflect the *final* entry.
	means := []float64{1.0, 1.0, 2.0, 1.0, 1.0}
	if got := TransientLength(means, 1, 0.05); got != 4 {
		t.Errorf("length = %d, want 4 (after the excursion)", got)
	}
}

// quadraticTransientLength is the O(n²) forward search TransientLength
// replaced: for every i it rescans to the end of the series. It is kept
// as the reference for the backward scan.
func quadraticTransientLength(means []float64, steady, tol float64) int {
	within := func(x float64) bool {
		rel := (x - steady) / steady
		if rel < 0 {
			rel = -rel
		}
		return rel <= tol
	}
	for i := range means {
		ok := true
		for j := i; j < len(means); j++ {
			if !within(means[j]) {
				ok = false
				break
			}
		}
		if ok {
			return i + 1
		}
	}
	return len(means)
}

// TestTransientLengthMatchesQuadratic holds the backward scan to the
// quadratic search on random series: empty ones, ones that never
// settle, ones whose last point is out of tolerance, excursions, points
// exactly on the tolerance edge, and a negative steady-state mean.
func TestTransientLengthMatchesQuadratic(t *testing.T) {
	r := sim.NewRand(10)
	levels := []float64{0.5, 0.9, 0.95, 1, 1.05, 1.1, 2}
	for trial := 0; trial < 5000; trial++ {
		means := make([]float64, r.Intn(30))
		for i := range means {
			means[i] = levels[r.Intn(len(levels))]
		}
		steady, tol := 1.0, []float64{0.05, 0.1, 0.5}[r.Intn(3)]
		if r.Intn(4) == 0 {
			steady = -1
			for i := range means {
				means[i] = -means[i]
			}
		}
		got := TransientLength(means, steady, tol)
		if want := quadraticTransientLength(means, steady, tol); got != want {
			t.Fatalf("trial %d: TransientLength(%v, %g, %g) = %d, quadratic %d",
				trial, means, steady, tol, got, want)
		}
	}
}

func TestTransientLengthPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero tol":    func() { TransientLength([]float64{1}, 1, 0) },
		"zero steady": func() { TransientLength([]float64{1}, 0, 0.1) },
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

func TestRunningMeans(t *testing.T) {
	reps := [][]float64{
		{1, 2, 3},
		{3, 4},
		{5, 6, 7, 8},
	}
	got := RunningMeans(reps)
	want := []float64{3, 4, 5, 8}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("index %d: %g, want %g", i, got[i], want[i])
		}
	}
}

func TestRunningMeansEmpty(t *testing.T) {
	if got := RunningMeans(nil); len(got) != 0 {
		t.Errorf("RunningMeans(nil) = %v", got)
	}
}

func TestColumn(t *testing.T) {
	reps := [][]float64{{1, 2}, {3}, {5, 6}}
	if got := Column(reps, 1); len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Errorf("Column(1) = %v", got)
	}
	if got := Column(reps, 5); got != nil {
		t.Errorf("Column(5) = %v, want nil", got)
	}
}

func TestTail(t *testing.T) {
	reps := [][]float64{{1, 2, 3}, {4, 5}}
	got := Tail(reps, 1)
	want := []float64{2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Tail = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Tail[%d] = %g", i, got[i])
		}
	}
}
