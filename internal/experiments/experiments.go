// Package experiments contains one driver per figure of the paper's
// evaluation. Each driver builds the scenario described in the paper,
// runs it on the simulated CSMA/CA link with independent replications,
// and returns the same series the paper plots, so the benchmark harness
// and the cmd/ tools can regenerate every figure.
//
// Every driver takes a Scale, which multiplies replication counts and
// train lengths so the same code serves quick tests (Scale{Tiny}),
// default CLI runs, and full paper-scale executions.
package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Series is one plotted line: X values and the corresponding Y values.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced figure: identifying metadata plus its series.
type Figure struct {
	ID     string // e.g. "fig01"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// xAlignment is the shared series-alignment index: the sorted union of
// X values plus, per series, an x→point-index map so rendering a cell
// is O(1) instead of a linear scan over the series.
func (f *Figure) xAlignment() (order []float64, lookup []map[float64]int) {
	xs := map[float64]bool{}
	lookup = make([]map[float64]int, len(f.Series))
	for si, s := range f.Series {
		lookup[si] = make(map[float64]int, len(s.X))
		for i, x := range s.X {
			xs[x] = true
			lookup[si][x] = i
		}
	}
	order = make([]float64, 0, len(xs))
	for x := range xs {
		order = append(order, x)
	}
	sort.Float64s(order)
	return order, lookup
}

// CSV renders the figure as comma-separated values with one row per X
// value and one column per series. Series are aligned on the union of X
// values; missing points render empty.
func (f *Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	b.WriteString("x")
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
	}
	b.WriteString("\n")

	order, lookup := f.xAlignment()
	for _, x := range order {
		fmt.Fprintf(&b, "%g", x)
		for si, s := range f.Series {
			b.WriteString(",")
			if i, ok := lookup[si][x]; ok {
				fmt.Fprintf(&b, "%g", s.Y[i])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// JSON renders the figure as indented JSON, the machine-readable
// counterpart of CSV for downstream tooling. Output is deterministic
// for a given figure.
func (f *Figure) JSON() (string, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", fmt.Errorf("experiments: encode %s: %w", f.ID, err)
	}
	return string(b) + "\n", nil
}

// Table renders a fixed-width text table, the harness's stand-in for a
// plot: good enough to eyeball every figure's shape criterion (the
// root integration tests assert them).
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %20s", trunc(s.Name, 20))
	}
	b.WriteString("\n")

	order, lookup := f.xAlignment()
	for _, x := range order {
		fmt.Fprintf(&b, "%-14.4g", x)
		for si, s := range f.Series {
			if i, ok := lookup[si][x]; ok {
				fmt.Fprintf(&b, " %20.6g", s.Y[i])
			} else {
				fmt.Fprintf(&b, " %20s", "")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Scale tunes experiment effort. The paper uses 25000-70000 simulation
// repetitions; that is hours of CPU, so the default CLI scale uses
// enough replications for the shapes to be unambiguous and the tests use
// a tiny scale that exercises every code path.
type Scale struct {
	// Reps multiplies replication counts.
	Reps int
	// SweepPoints is the number of rate points in rate sweeps.
	SweepPoints int
	// SteadySeconds is the duration of steady-state measurements.
	SteadySeconds float64
	// Workers bounds the worker pool executing independent replications
	// and sweep points; 0 or negative means GOMAXPROCS. Results are
	// byte-identical at any worker count for the same seed.
	Workers int
}

// Tiny is for unit tests: every path runs, no statistical claims.
func Tiny() Scale { return Scale{Reps: 8, SweepPoints: 5, SteadySeconds: 0.5} }

// Default balances fidelity and runtime for the CLI tools and benches.
func Default() Scale { return Scale{Reps: 200, SweepPoints: 20, SteadySeconds: 2} }

// Paper approaches the paper's replication counts.
func Paper() Scale { return Scale{Reps: 5000, SweepPoints: 40, SteadySeconds: 10} }

func (s Scale) validate() error {
	if s.Reps < 1 || s.SweepPoints < 2 || s.SteadySeconds <= 0 {
		return fmt.Errorf("experiments: invalid scale %+v", s)
	}
	return nil
}

// sweep returns n rate points spanning [lo, hi] inclusive, in bit/s.
// Drivers call it before Run validates the Scale, so an invalid point
// count yields an empty sweep here and the validation error there
// rather than a panic.
func sweep(lo, hi float64, n int) []float64 {
	if n < 2 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
