package clikit

import (
	"flag"
	"math"
	"strings"
	"testing"

	"csmabw/internal/experiments"
	"csmabw/internal/mac"
)

func parse(t *testing.T, def Defaults, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, def)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestScalePresets(t *testing.T) {
	for name, want := range map[string]experiments.Scale{
		"tiny":    experiments.Tiny(),
		"default": experiments.Default(),
		"paper":   experiments.Paper(),
	} {
		f := parse(t, Defaults{}, "-scale", name)
		sc, err := f.Scale()
		if err != nil {
			t.Fatal(err)
		}
		if sc != want {
			t.Errorf("%s: %+v, want %+v", name, sc, want)
		}
	}
	f := parse(t, Defaults{}, "-scale", "huge")
	if _, err := f.Scale(); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestScaleOverrides(t *testing.T) {
	f := parse(t, Defaults{}, "-reps", "7", "-points", "3", "-seconds", "0.25", "-workers", "4")
	sc, err := f.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Reps != 7 || sc.SweepPoints != 3 || sc.SteadySeconds != 0.25 || sc.Workers != 4 {
		t.Errorf("overrides not applied: %+v", sc)
	}
	// Zero-valued overrides leave the preset untouched.
	f = parse(t, Defaults{})
	sc, _ = f.Scale()
	if sc.Reps != experiments.Default().Reps {
		t.Errorf("preset reps clobbered: %+v", sc)
	}
}

func TestToolDefaults(t *testing.T) {
	f := parse(t, Defaults{Seed: 17, Reps: 400, Points: 10, Seconds: 2})
	if f.Seed != 17 {
		t.Errorf("seed default = %d", f.Seed)
	}
	sc, err := f.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Reps != 400 || sc.SweepPoints != 10 || sc.SteadySeconds != 2 {
		t.Errorf("tool defaults not applied: %+v", sc)
	}
}

func TestExplicitScaleBeatsToolDefaults(t *testing.T) {
	// An explicit -scale must not be clobbered back to the tool's
	// defaults: `rrc -scale paper` means paper-scale statistics.
	def := Defaults{Seed: 17, Reps: 200, Points: 10, Seconds: 2}
	f := parse(t, def, "-scale", "paper")
	sc, err := f.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc != withWorkers(experiments.Paper(), 0) {
		t.Errorf("-scale paper clobbered by tool defaults: %+v", sc)
	}
	// ...but flags the user passed still win over the preset.
	f = parse(t, def, "-scale", "paper", "-reps", "7")
	sc, err = f.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Reps != 7 || sc.SweepPoints != experiments.Paper().SweepPoints {
		t.Errorf("explicit -reps with -scale paper: %+v", sc)
	}
	// Naming the default preset explicitly must equal omitting the flag.
	implicit, err := parse(t, def).Scale()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := parse(t, def, "-scale", "default").Scale()
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Errorf("-scale default (%+v) differs from omitted flag (%+v)", explicit, implicit)
	}
}

func withWorkers(sc experiments.Scale, w int) experiments.Scale {
	sc.Workers = w
	return sc
}

func TestRenderFormats(t *testing.T) {
	fig := &experiments.Figure{
		ID: "figX", Title: "t", XLabel: "x", YLabel: "y",
		Series: []experiments.Series{{Name: "s", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	table, err := Render(fig, "table")
	if err != nil || !strings.Contains(table, "figX") {
		t.Errorf("table: %v\n%s", err, table)
	}
	csv, err := Render(fig, "csv")
	if err != nil || !strings.Contains(csv, "1,3") {
		t.Errorf("csv: %v\n%s", err, csv)
	}
	j, err := Render(fig, "json")
	if err != nil || !strings.Contains(j, `"ID": "figX"`) {
		t.Errorf("json: %v\n%s", err, j)
	}
	if _, err := Render(fig, "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	var b strings.Builder
	f := parse(t, Defaults{}, "-format", "csv")
	if err := f.Emit(&b, fig); err != nil || !strings.Contains(b.String(), "1,3") {
		t.Errorf("emit: %v %q", err, b.String())
	}
}

func TestParseLists(t *testing.T) {
	fs, err := ParseFloats("0.1, 0.5,1")
	if err != nil || len(fs) != 3 || fs[1] != 0.5 {
		t.Errorf("floats: %v %v", fs, err)
	}
	if _, err := ParseFloats("1,x"); err == nil {
		t.Error("bad float accepted")
	}
	is, err := ParseInts("3, 10,50")
	if err != nil || len(is) != 3 || is[2] != 50 {
		t.Errorf("ints: %v %v", is, err)
	}
	if _, err := ParseInts("3,1.5"); err == nil {
		t.Error("bad int accepted")
	}
}

func TestScaleRejectsBadFormatEarly(t *testing.T) {
	f := parse(t, Defaults{}, "-format", "yaml")
	if _, err := f.Scale(); err == nil {
		t.Error("unknown format not rejected before the run")
	}
}

// TestScaleRejectsNonFiniteAndNegative is the parse-time screen for the
// common numeric knobs: strconv (and therefore flag) accepts "NaN",
// "Inf" and negative values, and before this validation they flowed
// straight into the engine and produced unrenderable figures.
func TestScaleRejectsNonFiniteAndNegative(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"seconds NaN", []string{"-seconds", "NaN"}},
		{"seconds +Inf", []string{"-seconds", "Inf"}},
		{"seconds -Inf", []string{"-seconds", "-Inf"}},
		{"seconds negative", []string{"-seconds", "-1"}},
		{"reps negative", []string{"-reps", "-5"}},
		{"points negative", []string{"-points", "-2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := parse(t, Defaults{}, c.args...)
			if _, err := f.Scale(); err == nil {
				t.Errorf("Scale() accepted %v", c.args)
			}
		})
	}
	// Zero stays the documented "use the preset" sentinel.
	f := parse(t, Defaults{}, "-seconds", "0", "-reps", "0", "-points", "0")
	if _, err := f.Scale(); err != nil {
		t.Errorf("zero sentinel rejected: %v", err)
	}
}

// TestChannelRejectsNonFinite mirrors the screen for the channel knobs.
func TestChannelRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		c    ChannelFlags
	}{
		{"fer NaN", ChannelFlags{FER: math.NaN()}},
		{"fer Inf", ChannelFlags{FER: math.Inf(1)}},
		{"fer negative", ChannelFlags{FER: -0.1}},
		{"ber NaN", ChannelFlags{BER: math.NaN()}},
		{"ber 1", ChannelFlags{BER: 1}},
		{"capture NaN", ChannelFlags{CaptureDB: math.NaN()}},
		{"capture Inf", ChannelFlags{CaptureDB: math.Inf(1)}},
		{"capture negative", ChannelFlags{CaptureDB: -3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.c.Channel(2); err == nil {
				t.Errorf("Channel() accepted %+v", c.c)
			}
		})
	}
	if _, err := (&ChannelFlags{FER: 0.1, CaptureDB: 6}).Channel(2); err != nil {
		t.Errorf("valid channel rejected: %v", err)
	}
}

// TestEDCARatesRejectNonFinite extends the -rates validation to NaN and
// Inf, which the negative-rate check alone let through (NaN < 0 is
// false).
func TestEDCARatesRejectNonFinite(t *testing.T) {
	for _, rates := range []string{"NaN", "Inf", "-Inf", "11,NaN", "-1"} {
		e := &EDCAFlags{Rates: rates}
		if err := e.Apply(make([]mac.StationConfig, 2)); err == nil {
			t.Errorf("-rates %q accepted", rates)
		}
	}
	if err := (&EDCAFlags{Rates: "11,5.5"}).Apply(make([]mac.StationConfig, 2)); err != nil {
		t.Errorf("valid -rates rejected: %v", err)
	}
}

// TestFigureJSONRejectsNonFinite confirms the encoding boundary the
// flag validation protects: a figure holding NaN or Inf cannot be
// rendered as JSON (json.Marshal rejects non-finite floats), so the
// error must surface instead of panicking.
func TestFigureJSONRejectsNonFinite(t *testing.T) {
	for name, v := range map[string]float64{"NaN": math.NaN(), "Inf": math.Inf(1)} {
		fig := &experiments.Figure{
			ID: "bad", Series: []experiments.Series{{Name: "s", X: []float64{1}, Y: []float64{v}}},
		}
		if _, err := fig.JSON(); err == nil {
			t.Errorf("Figure.JSON encoded a %s value", name)
		}
		if _, err := Render(fig, "json"); err == nil {
			t.Errorf("Render(json) encoded a %s value", name)
		}
	}
}
