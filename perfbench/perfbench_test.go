package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"

	"csmabw/internal/campaign"
	"csmabw/internal/experiments"
)

// TestMetricNames checks every metric name's shape and uniqueness, and
// that BENCHMARK.json declares exactly the metrics this program prints.
func TestMetricNames(t *testing.T) {
	seen := map[string]string{}
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, m := range list {
			if !metricName.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("bad metric name %q", m.name)
			}
			if _, dup := seen[m.name]; dup {
				t.Errorf("metric %q listed twice", m.name)
			}
			seen[m.name] = m.unit
		}
	}
	for _, bad := range []string{"", "a b", "x/y", "p90%"} {
		if metricName.MatchString(bad) {
			t.Errorf("metricName accepts %q", bad)
		}
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, group := range []struct {
		got  []struct{ Name, Unit string }
		want []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(group.got) != len(group.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(group.got), len(group.want))
			continue
		}
		for i, m := range group.got {
			if w := group.want[i]; m.Name != w.name || m.Unit != w.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)", i, m.Name, m.Unit, w.name, w.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestMedianQuartiles pins the spread statistics to Python's
// statistics.median and statistics.quantiles(n=4).
func TestMedianQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, 3, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if median(c.xs) != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", c.xs, median(c.xs), q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 4, 1, 5, 9, 2, 6}); got != 3.5 {
		t.Errorf("even median %g, want 3.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare %g, want 1", got)
	}
}

// TestTailPercentile checks the rule that a percentile is reported only
// with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := nearestRank(xs, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := nearestRank(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	for _, c := range []struct{ n, p int }{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.p {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.p)
		}
	}
}

// TestOutputCheckDeterminism runs the output check at tiny scale: a
// figure pass and a campaign pass give the same digest on every pass
// and at one and two workers, a different seed changes it, and a
// differing digest is counted as failed units.
func TestOutputCheckDeterminism(t *testing.T) {
	outDir = t.TempDir()
	if err := os.MkdirAll(scratchDir(), 0o755); err != nil {
		t.Fatal(err)
	}
	figs := figurePass(pathselJobs(1), experiments.Tiny())
	plan, err := campaign.CompileFile("../internal/campaign/testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	camp := campaignPass(plan, 1)
	for name, pass := range map[string]func(sub, workers int, tr *tracer, parent int) passOut{
		"figures": figs, "campaign": camp,
	} {
		b := &bench{out: io.Discard}
		dc := &digestCheck{first: map[int]string{}, b: b}
		for _, w := range []int{1, 2, 2} {
			p := pass(0, w, nil, 0)
			b.count(p)
			dc.see(0, p)
		}
		if b.failed != 0 || b.attempted == 0 {
			t.Errorf("%s: %d of %d units failed", name, b.failed, b.attempted)
		}
		dc.see(0, passOut{units: []float64{1, 1}, digest: "different"})
		if b.failed != 2 {
			t.Errorf("%s: a differing digest failed %d units, want 2", name, b.failed)
		}
	}
	if camp(1, 2, nil, 0).digest == camp(0, 2, nil, 0).digest {
		t.Error("campaign: sub-seed 1 gave sub-seed 0's digest")
	}
	if figurePass(pathselJobs(2), experiments.Tiny())(0, 2, nil, 0).digest == figs(0, 2, nil, 0).digest {
		t.Error("figures: seed 2 gave seed 1's digest")
	}
}

// TestSelfTimes checks that a span's self time excludes its children,
// counting overlapping parallel children once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "experiments.fig", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "runner.map", Start: 1, End: 7},
		{ID: 3, Parent: 2, Name: "probe.one", Start: 2, End: 5},
		{ID: 4, Parent: 2, Name: "probe.one", Start: 3, End: 6},
		{ID: 5, Parent: 1, Name: "stats.ks", Start: 7, End: 9},
	}
	got := selfTimes(spans)
	want := map[string]float64{"experiments": 2, "runner": 2, "probe": 6, "stats": 2}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", k, got[k], v)
		}
	}
}

// TestComposeFig09 checks the composed fig09 pipeline against the
// registry driver at tiny scale, traced and untraced, and that the
// comparison would see a different seed's figure.
func TestComposeFig09(t *testing.T) {
	sc := experiments.Tiny()
	sc.Workers = 2
	p, opt := fig09(seedStride)
	want, err := experiments.FigKS("fig09", p, sc, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		s := &suite{b: &bench{seed: 1}, tr: tr}
		fig, _, _, _, err := s.composeFig09(0, sc)
		if err != nil {
			t.Fatal(err)
		}
		if fig.CSV() != want.CSV() {
			t.Errorf("composed fig09 (traced=%v) differs from FigKS", tr != nil)
		}
	}
	other, _, _, _, err := (&suite{b: &bench{seed: 2}}).composeFig09(0, sc)
	if err != nil {
		t.Fatal(err)
	}
	if other.CSV() == want.CSV() {
		t.Error("seed 2's composed fig09 equals seed 1's")
	}
}
