package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmabw/internal/experiments"
	"csmabw/internal/scenario"
)

const scenariosDir = "../../scenarios"

// body drops a CSV's "# id: title" line, leaving what the figure plots.
func body(csv string) string {
	_, rest, _ := strings.Cut(csv, "\n")
	return rest
}

// runFigures runs the command with -out pointing at a fresh directory
// and returns the exit status, the directory and stderr.
func runFigures(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	var stderr strings.Builder
	code := run(append([]string{"-out", dir, "-scale", "tiny"}, args...), io.Discard, &stderr)
	return code, dir, stderr.String()
}

// TestScenarioOnly binds the paper-baseline spec to two registry
// figures and checks each file against its driver called directly on
// the compiled cell.
func TestScenarioOnly(t *testing.T) {
	path := filepath.Join(scenariosDir, "paper-baseline.json")
	code, dir, stderr := runFigures(t, "-scenario", path, "-only", "fig08,fig10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	c, err := scenario.CompileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := experiments.TransientParamsFromCompiled(c)
	if err != nil {
		t.Fatal(err)
	}
	fp := experiments.DefaultFig10()
	fp.Base, fp.Seed, fp.PacketSize, fp.TrainLen = &c.Link, c.Link.Seed, c.Link.ProbeSize, c.Probing.TrainLen
	want := map[string]func() (*experiments.Figure, error){
		"fig08": func() (*experiments.Figure, error) {
			return experiments.FigKS("fig08", tp, experiments.Tiny(), experiments.DefaultKSOptions(tp.TrainLen))
		},
		"fig10": func() (*experiments.Figure, error) { return experiments.Fig10TransientDuration(fp, experiments.Tiny()) },
	}
	for id, driver := range want {
		got, err := os.ReadFile(filepath.Join(dir, "paper-baseline-"+id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(got), "# paper-baseline-"+id+": ") {
			t.Errorf("%s: header %q does not carry the spec-qualified id", id, strings.SplitN(string(got), "\n", 2)[0])
		}
		fig, err := driver()
		if err != nil {
			t.Fatal(err)
		}
		if body(string(got)) != body(fig.CSV()) {
			t.Errorf("%s: CLI output differs from the driver run on the compiled cell", id)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(want) {
		t.Errorf("wrote %d files, want %d", len(files), len(want))
	}
}

// TestRejected covers the command lines that must fail: exit 2 for a
// bad command line, 1 for a spec the figure cannot measure.
func TestRejected(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		frag string
	}{
		{"figure without spec form", []string{"-scenario", filepath.Join(scenariosDir, "paper-baseline.json"), "-only", "fig01"}, 2, "no spec form"},
		{"unknown figure", []string{"-only", "fig99"}, 2, "unknown figure"},
		{"seed without scenario", []string{"-only", "fig13", "-seed", "99"}, 2, "-seed needs -scenario"},
		{"steady plan for a train figure", []string{"-scenario", filepath.Join(scenariosDir, "mixed-rate-anomaly-mesh.json"), "-only", "fig08"}, 1, "probing plan"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			code, dir, stderr := runFigures(t, tt.args...)
			if code != tt.code || !strings.Contains(stderr, tt.frag) {
				t.Errorf("exit %d, stderr %q; want exit %d mentioning %q", code, stderr, tt.code, tt.frag)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("wrote %d files on a rejected run", len(files))
			}
		})
	}
}
