package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csmabw/internal/mac"
	"csmabw/internal/sim"
)

// macConfigGolden pins what MACConfig hands the engine for every
// library spec. After an intentional change to the engine or to the
// spec library, delete the file and rerun the test to regenerate it.
const macConfigGolden = "testdata/macconfig.golden"

// TestMACConfigGolden runs each library spec's MACConfig for one
// simulated second, replications 0 and 1 of the spec-seeded stream
// (the dcfsim -scenario path), and asserts every station's counters
// and the run's end instant against the golden.
func TestMACConfigGolden(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 7 {
		t.Fatalf("found %d library specs, want 7", len(specs))
	}
	var b strings.Builder
	for _, path := range specs {
		c, err := CompileFile(path)
		if err != nil {
			t.Fatal(err)
		}
		root := sim.NewStream(c.Link.Seed)
		for rep := uint64(0); rep < 2; rep++ {
			cfg, err := c.MACConfig(root.Child(rep), sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			res, err := mac.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s rep=%d end=%d\n", c.Name, rep, res.End)
			for i, st := range res.Stats {
				fmt.Fprintf(&b, "  %s %+v\n", cfg.Stations[i].Name, st)
			}
		}
	}
	got := b.String()
	want, err := os.ReadFile(macConfigGolden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(macConfigGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; rerun to compare against it", macConfigGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("MACConfig runs differ from %s:\ngot:\n%s\nwant:\n%s", macConfigGolden, got, want)
	}
}
