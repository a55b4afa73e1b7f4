// Command figures regenerates the figures of the paper's evaluation
// and writes one CSV per figure, printing each in the selected format
// to stdout. The experiment index is the registry in
// internal/experiments/registry.go; docs/ARCHITECTURE.md ("How a
// figure is born") describes how an entry is added.
//
// Usage:
//
//	figures [-only fig01,fig08] [-out DIR] [-scenario FILE.json [-seed N]]
//	        [-scale tiny|default|paper] [-reps N] [-points N] [-seconds S]
//	        [-workers N] [-format table|csv|json]
//
// Replications and sweep points run on -workers goroutines; the output
// is byte-identical at any worker count. Registry figures run at their
// paper seeds, so -seed is only accepted together with -scenario.
//
// With -scenario the measured cell, seed and probing plan come from a
// declarative spec file. Without -only the one figure the spec's
// probing plan selects (transient for train plans, rate response for
// steady plans) is written to <spec>.csv. With -only each listed
// figure runs over the spec's cell instead of the paper's and is
// written to <spec>-<id>.csv; only the train-based paper figures
// fig06-fig10, fig13 and fig17 accept a scenario.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"csmabw/internal/clikit"
	"csmabw/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// job is one figure to render and write.
type job struct {
	id  string
	run func() (*experiments.Figure, error)
}

// run executes the command line and returns the exit status: 2 for a
// bad command line, 1 when a figure fails to render or write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated figure ids to run (default: all)")
	out := fs.String("out", "figures-out", "directory for CSV output")
	common := clikit.Register(fs, clikit.Defaults{})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	jobs, err := selectJobs(common, *only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	status := 0
	for _, j := range jobs {
		start := time.Now()
		fig, err := j.run()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", j.id, err)
			status = 1
			continue
		}
		path := filepath.Join(*out, fig.ID+".csv")
		if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
			fmt.Fprintf(stderr, "%s: write: %v\n", j.id, err)
			status = 1
			continue
		}
		if err := common.Emit(stdout, fig); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "  (%.1fs, wrote %s)\n\n", time.Since(start).Seconds(), path)
	}
	return status
}

// selectJobs resolves the command line into the figures to render, in
// registry order, rejecting unknown ids, ids that cannot bind the
// -scenario cell, and a -seed the registry figures would ignore.
func selectJobs(common *clikit.Flags, only string) ([]job, error) {
	sc, err := common.Scale()
	if err != nil {
		return nil, err
	}
	scen, err := common.Scenario()
	if err != nil {
		return nil, err
	}
	if scen == nil && common.Explicit("seed") {
		return nil, errors.New("-seed needs -scenario: registry figures run at their paper seeds")
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	all := len(want) == 0
	if scen != nil {
		scen.Link.Seed = common.ScenarioSeed(scen)
		sc = common.ScenarioScale(sc, scen)
		if all {
			return []job{{scen.Name, func() (*experiments.Figure, error) { return experiments.ScenarioFigure(scen, sc) }}}, nil
		}
	}
	var jobs []job
	for _, e := range experiments.Registry() {
		if !all && !want[e.ID] {
			continue
		}
		delete(want, e.ID)
		switch {
		case scen == nil:
			jobs = append(jobs, job{e.ID, func() (*experiments.Figure, error) { return e.Run(sc) }})
		case e.Spec == nil:
			return nil, fmt.Errorf("%s has no spec form: it cannot run over -scenario", e.ID)
		default:
			id := scen.Name + "-" + e.ID
			jobs = append(jobs, job{id, func() (*experiments.Figure, error) {
				fig, err := e.Spec(scen, sc)
				if err == nil {
					fig.ID = id
				}
				return fig, err
			}})
		}
	}
	for id := range want {
		return nil, fmt.Errorf("unknown figure id %q", id)
	}
	return jobs, nil
}
