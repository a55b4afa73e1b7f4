// Command figures regenerates every figure of the paper's evaluation
// and writes one CSV per figure, printing each in the selected format
// to stdout. The experiment index is the registry in
// internal/experiments/registry.go; docs/ARCHITECTURE.md ("How a
// figure is born") describes how an entry is added.
//
// Usage:
//
//	figures [-only fig01,fig08] [-out DIR] [-scenario FILE.json]
//	        [-scale tiny|default|paper] [-reps N] [-points N] [-seconds S]
//	        [-workers N] [-format table|csv|json]
//
// Replications and sweep points run on -workers goroutines; the output
// is byte-identical at any worker count.
//
// With -scenario the registry is skipped and the one figure the spec's
// probing plan selects (transient for train plans, rate response for
// steady plans) renders from the compiled cell instead; -only then
// conflicts and is rejected.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"csmabw/internal/clikit"
	"csmabw/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated figure ids to run (default: all)")
	out := flag.String("out", "figures-out", "directory for CSV output")
	common := clikit.Register(flag.CommandLine, clikit.Defaults{})
	flag.Parse()

	sc, err := common.Scale()
	if err != nil {
		clikit.Exitf(2, "%v", err)
	}
	if scen, err := common.Scenario(); err != nil {
		clikit.Exitf(2, "%v", err)
	} else if scen != nil {
		if *only != "" {
			clikit.Exitf(2, "-only conflicts with -scenario: the spec selects the figure")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			clikit.Exitf(1, "%v", err)
		}
		scen.Link.Seed = common.ScenarioSeed(scen)
		sc = common.ScenarioScale(sc, scen)
		start := time.Now()
		fig, err := experiments.ScenarioFigure(scen, sc)
		clikit.Check(err)
		path := filepath.Join(*out, fig.ID+".csv")
		clikit.Check(os.WriteFile(path, []byte(fig.CSV()), 0o644))
		clikit.Check(common.Emit(os.Stdout, fig))
		fmt.Printf("  (%.1fs, wrote %s)\n", time.Since(start).Seconds(), path)
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			if id = strings.TrimSpace(id); id != "" {
				want[id] = true
			}
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		clikit.Exitf(1, "%v", err)
	}

	failed := false
	for _, entry := range experiments.Registry() {
		if *only != "" && !want[entry.ID] {
			continue
		}
		delete(want, entry.ID)
		start := time.Now()
		fig, err := entry.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", entry.ID, err)
			failed = true
			continue
		}
		path := filepath.Join(*out, fig.ID+".csv")
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "%s: write: %v\n", entry.ID, err)
			failed = true
			continue
		}
		if err := common.Emit(os.Stdout, fig); err != nil {
			clikit.Exitf(2, "%v", err)
		}
		fmt.Printf("  (%.1fs, wrote %s)\n\n", time.Since(start).Seconds(), path)
	}
	if len(want) > 0 {
		for id := range want {
			fmt.Fprintf(os.Stderr, "unknown figure id %q\n", id)
		}
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
