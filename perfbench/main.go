// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed time, checks that the outputs are deterministic
// and finite, and prints every metric by name and unit. With -trace 1
// it instead runs the workload traced and untraced plus a suite of
// per-layer measurements, and reports the per-layer metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it carry the
// run context, the output digests and the per-layer self times.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"csmabw/internal/campaign"
)

// workers is the worker pool size of every workload: the two cores the
// benchmark was sized on.
const workers = 2

// outDir holds what a run leaves behind (span files, temporary logs),
// relative to the checkout root; tests point it elsewhere.
var outDir = ".perfbench/out"

func scratchDir() string { return filepath.Join(outDir, "tmp") }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"unit_p50_s", "s"},
	{"unit_p90_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ci_coverage", "fraction"},
	{"abs_rel_err_p50", "fraction"},
	{"probe_pkts_per_job", "pkts"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-figures, campaign-library or pathsel-failover")
	seed := fs.Int64("seed", 0, "workload seed (0 keeps the programs' default seeds)")
	seconds := fs.Float64("seconds", 20, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = fmt.Errorf("bad -trace or -seconds")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(scratchDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratchDir())

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	emit(out, "context", runContext(w.name, *seed, workers, *trace))
	b := &bench{w: w, seed: *seed, workers: workers, seconds: *seconds, out: out}
	var res *result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(enc))
	return 0
}

// emit prints one informational JSON line, {"<kind>": v}.
func emit(w io.Writer, kind string, v any) {
	b, _ := json.Marshal(map[string]any{kind: v})
	fmt.Fprintln(w, string(b))
}

// runContext records what the numbers depend on besides the code, so
// results from different machines are never mixed silently.
func runContext(workload string, seed int64, workers, trace int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"workers":    workers,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// usage reads the process's CPU seconds and peak resident megabytes.
func usage() (cpu, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// liveHeap tracks the peak of the live heap over the GC cycles of one
// pass: a sentinel object's finalizer runs after each collection, reads
// the bytes the cycle marked live, and re-arms with a new sentinel.
type liveHeap struct {
	peak atomic.Uint64
	stop atomic.Bool
}

type sentinel struct {
	_ *int
	_ [16]byte
}

func watchLiveHeap() *liveHeap {
	h := &liveHeap{}
	h.arm()
	return h
}

func (h *liveHeap) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			v := s[0].Value.Uint64()
			for p := h.peak.Load(); v > p; p = h.peak.Load() {
				if h.peak.CompareAndSwap(p, v) {
					break
				}
			}
		}
		if !h.stop.Load() {
			h.arm()
		}
	})
}

// take returns the peak live heap in megabytes since the last take and
// starts a new window.
func (h *liveHeap) take() float64 { return float64(h.peak.Swap(0)) / (1 << 20) }

// end disarms the watch.
func (h *liveHeap) end() { h.stop.Store(true) }

// bench is one benchmark run and its running tally of operations.
type bench struct {
	w         workload
	seed      int64
	workers   int
	seconds   float64
	out       io.Writer
	attempted int
	failed    int
}

// count adds a pass's units to the tally.
func (b *bench) count(p passOut) {
	b.attempted += max(len(p.units), p.failed, 1)
	b.failed += p.failed
}

// timeSetup runs the workload's set-up many times and returns the
// median seconds per set-up and the last prepared workload. Each sample
// times a batch of set-ups lasting at least a millisecond, so the timer's
// own cost and single-call jitter do not show in microsecond set-ups.
func (b *bench) timeSetup() (float64, *prepared, error) {
	var prep *prepared
	batch := func(k int) (float64, error) {
		t0 := time.Now()
		for range k {
			p, err := b.w.setup(b.seed)
			if err != nil {
				return 0, fmt.Errorf("%s set-up: %w", b.w.name, err)
			}
			prep = p
		}
		return time.Since(t0).Seconds(), nil
	}
	k := 1
	for {
		d, err := batch(k)
		if err != nil {
			return 0, nil, err
		}
		if d >= 1e-3 {
			break
		}
		k *= 2
	}
	var times []float64
	start := time.Now()
	for len(times) < 20 || time.Since(start) < 250*time.Millisecond {
		d, err := batch(k)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, d/float64(k))
	}
	return median(times), prep, nil
}

// digestCheck compares every pass's digest with the first digest seen
// for its sub-seed; a pass that differs fails all its units.
type digestCheck struct {
	first map[int]string
	b     *bench
}

func (d *digestCheck) see(sub int, p passOut) {
	want, ok := d.first[sub]
	if !ok {
		d.first[sub] = p.digest
		return
	}
	if p.digest != want {
		fmt.Fprintf(os.Stderr, "perfbench: sub-seed %d: digest %s differs from %s\n", sub, p.digest, want)
		d.b.failed += max(len(p.units), 1) - p.failed
	}
}

// untraced is the end-to-end run: a workers=1 reference pass (which
// also warms caches), timed passes at the benchmark's worker count for
// the requested time, then the output checks and the modelled metrics.
// Unit percentiles are taken per pass and their median reported: a
// pooled percentile that falls between two unit kinds of very different
// size (pathsel-failover's two figures) reads the slowest call of the
// faster kind, which one stalled call moves by 2x.
func (b *bench) untraced() (*result, error) {
	setupS, prep, err := b.timeSetup()
	if err != nil {
		return nil, err
	}
	dc := &digestCheck{first: map[int]string{}, b: b}
	heap := watchLiveHeap()
	ref := prep.pass(0, 1, nil, 0)
	b.count(ref)
	dc.see(0, ref)

	var walls, units, p50s, p90s, heaps []float64
	byID := map[string][]float64{}
	recs := map[int][]campaign.Record{}
	start := time.Now()
	for i := 0; i < 2*prep.subSeeds || time.Since(start).Seconds() < b.seconds; i++ {
		sub := i % prep.subSeeds
		heap.take()
		p := prep.pass(sub, b.workers, nil, 0)
		heaps = append(heaps, heap.take())
		b.count(p)
		dc.see(sub, p)
		walls = append(walls, p.wall)
		units = append(units, p.units...)
		p50s = append(p50s, nearestRank(p.units, 0.5))
		p90s = append(p90s, nearestRank(p.units, 0.9))
		for j, id := range p.ids {
			byID[id] = append(byID[id], p.units[j])
		}
		if p.recs != nil && recs[sub] == nil {
			recs[sub] = p.recs
		}
	}
	heap.end()
	_, rssMB := usage()
	emit(b.out, "digests", map[string]any{"workers1": ref.digest, "by_sub_seed": dc.first})
	emit(b.out, "units", map[string]any{"passes": len(walls), "samples": len(units),
		"tail_percentile": tailPercentile(len(units)), "beyond_p90": beyond(len(units), 0.9),
		"rss_peak_mb": rssMB, "unit_median_s": medians(byID), "pass_wall_s": walls, "pass_wall_iqr_share": iqrShare(walls)})

	pooled, err := b.modelledRecords(recs)
	if err != nil {
		return nil, err
	}
	cov, relErr, pkts := modelled(pooled)
	vals := map[string]float64{
		"setup_s":            setupS,
		"wall_s":             median(walls),
		"unit_p50_s":         median(p50s),
		"unit_p90_s":         median(p90s),
		"mem_peak_mb":        median(heaps),
		"ci_coverage":        cov,
		"abs_rel_err_p50":    relErr,
		"probe_pkts_per_job": pkts,
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	res.Correct = b.failed == 0
	return res, nil
}

// medians maps each unit name to the median of its samples.
func medians(byID map[string][]float64) map[string]float64 {
	m := map[string]float64{}
	for id, xs := range byID {
		m[id] = median(xs)
	}
	return m
}

// modelledRecords returns the campaign records of every campaign
// sub-seed. The modelled metrics describe the estimators, so every
// workload reports them: the campaign workload from its own timed
// passes, the others from untimed library runs at the same seeds.
func (b *bench) modelledRecords(have map[int][]campaign.Record) ([]campaign.Record, error) {
	var side *prepared
	var all []campaign.Record
	for sub := range campaignSubSeeds {
		if have[sub] == nil {
			if side == nil {
				var err error
				if side, err = setupCampaign(b.seed); err != nil {
					return nil, fmt.Errorf("campaign set-up: %w", err)
				}
			}
			p := side.pass(sub, b.workers, nil, 0)
			b.count(p)
			have[sub] = p.recs
		}
		all = append(all, have[sub]...)
	}
	return all, nil
}
