package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"csmabw/internal/campaign"
	"csmabw/internal/experiments"
	"csmabw/internal/probe"
	"csmabw/internal/runner"
)

// seedStride spaces the benchmark seed across the programs' own seed
// fields: seed 0 keeps every default seed, so its outputs are the ones
// the registry and the checked-in campaign produce.
const seedStride = 1000

// libraryPath is the campaign the campaign-library workload runs,
// relative to the checkout root the benchmark runs from.
const libraryPath = "scenarios/campaigns/library.json"

// passOut is what one pass over a workload's units produced.
type passOut struct {
	wall   float64   // host seconds of the pass
	units  []float64 // host seconds per unit, in run order
	ids    []string  // unit names, parallel to units
	digest string    // hash of the pass's deterministic outputs
	failed int       // units that errored or produced non-finite output
	recs   []campaign.Record
	meter  runner.MeterStats // campaign passes only
}

// prepared is a workload after set-up: pass runs every unit once with
// sub-seed sub on the given number of workers, under span parent when
// tr is non-nil.
type prepared struct {
	subSeeds int
	pass     func(sub, workers int, tr *tracer, parent int) passOut
}

// workload is one named input set; README.md gives the reason for each.
type workload struct {
	name  string
	setup func(seed int64) (*prepared, error)
}

var workloads = []workload{
	{"paper-figures", setupPaperFigures},
	{"campaign-library", setupCampaign},
	{"pathsel-failover", setupPathsel},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// figJob is one figure driver call with its seed already threaded in.
type figJob struct {
	id  string
	run func(sc experiments.Scale) (*experiments.Figure, error)
}

// transientLink is the cell a transient figure's driver measures when
// its params carry no Base link.
func transientLink(p experiments.TransientParams) probe.Link {
	return probe.Link{ProbeSize: p.PacketSize, Contenders: p.Contenders, Seed: p.Seed}
}

// fig09 is the registry's fig09 configuration at seed offset off.
func fig09(off int64) (experiments.TransientParams, experiments.KSOptions) {
	p := experiments.DefaultFig9()
	p.Seed += off
	opt := experiments.DefaultKSOptions(p.TrainLen)
	opt.Packets = 50
	return p, opt
}

// paperJobs mirrors the registry's fig01..fig17 entries with every
// driver's Seed offset by the benchmark seed.
func paperJobs(seed int64) []figJob {
	off := seed * seedStride
	f1 := experiments.DefaultFig1()
	f1.Seed += off
	f4 := experiments.DefaultFig4()
	f4.Seed += off
	f6 := experiments.DefaultFig6()
	f6.Seed += off
	f8 := experiments.DefaultFig8()
	f8.Seed += off
	f9, opt9 := fig09(off)
	f10 := experiments.DefaultFig10()
	f10.Seed += off
	f13 := experiments.DefaultFig13()
	f13.Seed += off
	f15 := experiments.DefaultFig15()
	f15.Seed += off
	f16 := experiments.DefaultFig16()
	f16.Seed += off
	f17 := experiments.DefaultFig17()
	f17.Seed += off
	return []figJob{
		{"fig01", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.Fig1SteadyStateRRC(f1, sc) }},
		{"fig04", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.Fig4CompleteRRC(f4, sc) }},
		{"fig06", func(sc experiments.Scale) (*experiments.Figure, error) {
			return experiments.Fig6MeanAccessDelay(f6, sc, 150)
		}},
		{"fig07", func(sc experiments.Scale) (*experiments.Figure, error) {
			return experiments.Fig7Histograms(f6, sc, 499, 30)
		}},
		{"fig08", func(sc experiments.Scale) (*experiments.Figure, error) {
			return experiments.FigKS("fig08", f8, sc, experiments.DefaultKSOptions(f8.TrainLen))
		}},
		{"fig09", func(sc experiments.Scale) (*experiments.Figure, error) {
			return experiments.FigKS("fig09", f9, sc, opt9)
		}},
		{"fig10", func(sc experiments.Scale) (*experiments.Figure, error) {
			return experiments.Fig10TransientDuration(f10, sc)
		}},
		{"fig13", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.TrainRRC("fig13", f13, sc) }},
		{"fig15", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.TrainRRC("fig15", f15, sc) }},
		{"fig16", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.Fig16PacketPair(f16, sc) }},
		{"fig17", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.Fig17MSER(f17, sc) }},
	}
}

// pathselJobs are the registry's two path-selection figures.
func pathselJobs(seed int64) []figJob {
	p := experiments.DefaultPathsel()
	p.Seed += seed * seedStride
	return []figJob{
		{"selection-regret", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.SelectionRegret(p, sc) }},
		{"failover-lag", func(sc experiments.Scale) (*experiments.Figure, error) { return experiments.FailoverLag(p, sc) }},
	}
}

// figureJobs are the 13 figure drivers the two figure workloads run.
func figureJobs(seed int64) []figJob { return append(paperJobs(seed), pathselJobs(seed)...) }

// setupPaperFigures threads the seed into every figure's params and
// plans each transient figure's probing train up front, so a bad
// configuration fails before the first unit.
func setupPaperFigures(seed int64) (*prepared, error) {
	f9, _ := fig09(0)
	for _, p := range []experiments.TransientParams{experiments.DefaultFig6(), experiments.DefaultFig8(), f9} {
		p.Seed += seed * seedStride
		if _, err := probe.PlanTrain(transientLink(p), p.TrainLen, p.ProbeRateBps); err != nil {
			return nil, err
		}
	}
	return &prepared{subSeeds: 1, pass: figurePass(paperJobs(seed), experiments.Default())}, nil
}

func setupPathsel(seed int64) (*prepared, error) {
	return &prepared{subSeeds: 1, pass: figurePass(pathselJobs(seed), experiments.Default())}, nil
}

// figurePass runs each figure once at scale sc; a unit is one driver
// call. The digest covers every figure's CSV and is taken after the
// clock stops.
func figurePass(jobs []figJob, sc experiments.Scale) func(sub, workers int, tr *tracer, parent int) passOut {
	return func(_, workers int, tr *tracer, parent int) passOut {
		sc.Workers = workers
		var out passOut
		figs := make([]*experiments.Figure, len(jobs))
		t0 := time.Now()
		for i, j := range jobs {
			var err error
			u0 := time.Now()
			tr.do("experiments."+j.id, parent, func(int) { figs[i], err = j.run(sc) })
			out.units = append(out.units, time.Since(u0).Seconds())
			out.ids = append(out.ids, j.id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.id, err)
				figs[i] = nil
			}
		}
		out.wall = time.Since(t0).Seconds()
		h := sha256.New()
		for i, f := range figs {
			if f == nil || !finiteFigure(f) {
				if f != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: non-finite series value\n", jobs[i].id)
				}
				out.failed++
				continue
			}
			h.Write([]byte(f.CSV()))
		}
		out.digest = hex.EncodeToString(h.Sum(nil))[:16]
		return out
	}
}

func finiteFigure(f *experiments.Figure) bool {
	for _, s := range f.Series {
		for i := range s.X {
			if !finite(s.X[i]) || !finite(s.Y[i]) {
				return false
			}
		}
	}
	return true
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// campaignSubSeeds is how many campaign seeds a run cycles through: the
// modelled metrics pool that many 63-job fleets, which keeps them
// steady from one benchmark seed to the next.
const campaignSubSeeds = 16

// setupCampaign compiles the library campaign (parse plus every
// scenario spec it names).
func setupCampaign(seed int64) (*prepared, error) {
	plan, err := campaign.CompileFile(libraryPath)
	if err != nil {
		return nil, err
	}
	return &prepared{subSeeds: campaignSubSeeds, pass: campaignPass(plan, seed)}, nil
}

// campaignSeed is the master seed of sub-seed sub for the benchmark
// seed; sub-seed 0 of seed 0 is the library's own seed.
func campaignSeed(base, seed int64, sub int) int64 {
	return base + seed*seedStride + int64(sub)
}

// campaignPass runs the whole fleet into a fresh log; a unit is one
// job, timed through the campaign's public meter. The digest is the
// compacted log's bytes, which hold no host-time fields.
func campaignPass(plan *campaign.Plan, seed int64) func(sub, workers int, tr *tracer, parent int) passOut {
	base := plan.Spec.Seed
	return func(sub, workers int, tr *tracer, parent int) passOut {
		plan.Spec.Seed = campaignSeed(base, seed, sub)
		out := passOut{}
		logPath := filepath.Join(scratchDir(), fmt.Sprintf("campaign-%d.jsonl", time.Now().UnixNano()))
		defer os.Remove(logPath)
		meter := &runner.Meter{}
		watch := watchMeter(meter)
		var res *campaign.RunResult
		var err error
		t0 := time.Now()
		tr.do("campaign.run", parent, func(int) {
			res, err = campaign.Run(plan, campaign.RunConfig{Workers: workers, LogPath: logPath, Meter: meter})
		})
		out.wall = time.Since(t0).Seconds()
		out.units = watch.stop()
		for range out.units {
			out.ids = append(out.ids, "job")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: campaign: %v\n", err)
			out.failed = len(plan.Jobs)
			return out
		}
		out.recs, out.meter = res.Records, res.Stats
		if len(res.Records) != len(plan.Jobs) {
			fmt.Fprintf(os.Stderr, "perfbench: campaign: %d records for %d jobs\n", len(res.Records), len(plan.Jobs))
			out.failed += len(plan.Jobs) - len(res.Records)
		}
		for _, r := range res.Records {
			if !finite(r.ValueBps) || !finite(r.TruthBps) || !finite(r.CIBps) || r.TruthBps <= 0 {
				fmt.Fprintf(os.Stderr, "perfbench: campaign: %s: non-finite or missing value/truth\n", r.Job)
				out.failed++
			}
		}
		b, err := os.ReadFile(logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: campaign: %v\n", err)
			out.failed++
		}
		sum := sha256.Sum256(b)
		out.digest = hex.EncodeToString(sum[:])[:16]
		return out
	}
}

// meterWatch recovers per-job service times from a runner.Meter while
// a campaign runs: each poll that sees the unit count grow attributes
// the growth of the meter's busy total to the new units. Two jobs that
// finish within one poll interval share their total equally.
type meterWatch struct {
	m       *runner.Meter
	quit    chan struct{}
	done    chan struct{}
	n       int
	busy    float64
	samples []float64
}

const watchInterval = 200 * time.Microsecond

func watchMeter(m *runner.Meter) *meterWatch {
	w := &meterWatch{m: m, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(watchInterval)
		defer t.Stop()
		for {
			select {
			case <-w.quit:
				w.poll()
				return
			case <-t.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *meterWatch) poll() {
	if w.m.Units() == w.n {
		return
	}
	// Stats over a one-second span on one worker reports the busy
	// total, in seconds, as its utilization.
	st := w.m.Stats(time.Second, 1)
	d := st.Units - w.n
	per := (st.Utilization - w.busy) / float64(d)
	for range d {
		w.samples = append(w.samples, per)
	}
	w.n, w.busy = st.Units, st.Utilization
}

// stop ends the watch and returns the per-job seconds it saw.
func (w *meterWatch) stop() []float64 {
	close(w.quit)
	<-w.done
	return w.samples
}

// modelled scores campaign records against ground truth: the share of
// jobs whose CI covers the truth, the median |relative error| over jobs
// that produced an estimate, and the probe packets spent per job.
func modelled(recs []campaign.Record) (coverage, relErrP50, pktsPerJob float64) {
	var covered, pkts int
	var errs []float64
	for _, r := range recs {
		if math.Abs(r.ValueBps-r.TruthBps) <= r.CIBps && r.Status != campaign.StatusFailed {
			covered++
		}
		if r.Status != campaign.StatusFailed {
			errs = append(errs, math.Abs(r.RelErr))
		}
		pkts += r.Packets
	}
	if len(recs) == 0 || len(errs) == 0 {
		return 0, 0, 0 // every job failed; the failures are already counted
	}
	n := float64(len(recs))
	return float64(covered) / n, median(errs), float64(pkts) / n
}
