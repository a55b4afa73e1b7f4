package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"csmabw/internal/campaign"
	"csmabw/internal/estimate"
	"csmabw/internal/experiments"
	"csmabw/internal/mac"
	"csmabw/internal/pathsel"
	"csmabw/internal/probe"
	"csmabw/internal/runner"
	"csmabw/internal/scenario"
	"csmabw/internal/sim"
	"csmabw/internal/stats"
)

// layers are the modules whose self time the traced run reports.
var layers = []string{"sim", "mac", "probe", "stats", "experiments", "runner",
	"scenario", "estimate", "campaign", "pathsel"}

// perLayer lists the traced run's metrics with their units.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"sim.exp_draws_per_s", "1/s"},
		{"mac.fullmesh.frames_per_s", "1/s"},
		{"mac.fullmesh.sim_s_per_wall_s", "s/s"},
		{"mac.fullmesh.allocs_per_frame", "count"},
		{"mac.hidden.frames_per_s", "1/s"},
		{"mac.hidden.sim_s_per_wall_s", "s/s"},
		{"mac.hidden.allocs_per_frame", "count"},
		{"mac.hidden.collision_frac", "fraction"},
		{"mac.reset_s", "s"},
		{"probe.train_reps_per_s", "1/s"},
		{"probe.allocs_per_rep", "count"},
		{"probe.plan_s", "s"},
		{"stats.ks_s", "s"},
		{"stats.mser_s", "s"},
		{"experiments.fig09.simulate_s", "s"},
		{"experiments.fig09.reduce_s", "s"},
		{"experiments.fig09.reduce_frac", "fraction"},
		{"experiments.fig09.scaling_2v1", "ratio"},
	}
	for _, j := range figureJobs(0) {
		m = append(m, struct{ name, unit string }{"experiments." + j.id + ".wall_s", "s"})
	}
	m = append(m, []struct{ name, unit string }{
		{"runner.busy_frac", "fraction"},
		{"runner.scaling_2v1", "ratio"},
		{"scenario.compile_s", "s"},
		{"estimate.topp.job_s", "s"},
		{"estimate.slops.job_s", "s"},
		{"estimate.adaptive.job_s", "s"},
		{"estimate.rounds_per_s", "1/s"},
		{"estimate.truth_s", "s"},
		{"campaign.jobs_per_s", "1/s"},
		{"campaign.job_p99_s", "s"},
		{"campaign.log_s", "s"},
		{"pathsel.epochs_per_s", "1/s"},
		{"pathsel.allocs_per_epoch", "count"},
		{"trace.overhead_frac", "fraction"},
	}...)
	for _, l := range layers {
		m = append(m, struct{ name, unit string }{l + ".self_s", "s"})
	}
	return m
}()

// suite is the traced run's state: the per-layer measurements record
// into vals, under spans that hang off root.
type suite struct {
	b         *bench
	tr        *tracer
	root      int
	vals      map[string]float64
	figWalls  map[string][]float64
	campStats []runner.MeterStats
	recs      []campaign.Record
}

// traced is the per-layer run. It alternates untraced and traced
// passes of the workload (their ratio is the tracing overhead), then
// runs the layer suite, which measures each module through its public
// calls on fixed inputs derived from the seed.
func (b *bench) traced() (*result, error) {
	tr := newTracer()
	root := tr.begin("perfbench.run", 0)
	prep, err := b.w.setup(b.seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
	}
	s := &suite{b: b, tr: tr, root: root, vals: map[string]float64{}, figWalls: map[string][]float64{}}
	dc := &digestCheck{first: map[int]string{}, b: b}
	keep := func(p passOut) {
		b.count(p)
		dc.see(0, p)
		for i, id := range p.ids {
			s.figWalls[id] = append(s.figWalls[id], p.units[i])
		}
		if p.recs != nil {
			s.campStats = append(s.campStats, p.meter)
			s.recs = p.recs
		}
	}
	keep(prep.pass(0, b.workers, nil, 0)) // warm-up

	var plain, traced []float64
	var cpu, wall float64
	start := time.Now()
	for i := 0; i < 1 || time.Since(start).Seconds() < b.seconds/2; i++ {
		c0, _ := usage()
		p := prep.pass(0, b.workers, nil, 0)
		c1, _ := usage()
		cpu, wall = cpu+c1-c0, wall+p.wall
		plain = append(plain, p.wall)
		keep(p)
		var q passOut
		tr.do("perfbench.pass", root, func(id int) { q = prep.pass(0, b.workers, tr, id) })
		traced = append(traced, q.wall)
		keep(q)
	}
	delete(s.figWalls, "job")
	s.vals["trace.overhead_frac"] = median(traced)/median(plain) - 1
	s.vals["runner.busy_frac"] = cpu / (wall * float64(b.workers))

	for _, step := range []func() error{s.sim, s.mac, s.probe, s.fig09, s.scaling,
		s.scenario, s.estimate, s.campaign, s.pathsel, s.figures} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	tr.end(root)

	self := selfTimes(tr.spans)
	for _, l := range layers {
		s.vals[l+".self_s"] = self[l]
	}
	emit(b.out, "self_s", self)
	emit(b.out, "digests", map[string]any{"by_sub_seed": dc.first})
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	emit(b.out, "spans", map[string]any{"file": path, "count": len(tr.spans)})

	res := &result{Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{s.vals[m.name], m.unit}
	}
	res.Attempted, res.Failed, res.Correct = b.attempted, b.failed, b.failed == 0
	return res, nil
}

// sink keeps measured results alive so the compiler cannot drop the
// calls that produce them.
var sink float64

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sim measures the RNG's exponential draws, the variate behind every
// Poisson arrival and backoff in the engine.
func (s *suite) sim() error {
	s.tr.do("sim.exp", s.root, func(int) {
		r := sim.NewRand(s.b.seed)
		const n = 2_000_000
		var rates []float64
		for range 5 {
			t0 := time.Now()
			acc := 0.0
			for range n {
				acc += r.Exp(1)
			}
			rates = append(rates, n/time.Since(t0).Seconds())
			sink += acc
		}
		s.vals["sim.exp_draws_per_s"] = median(rates)
	})
	return nil
}

// mac measures the engine on two compiled cells: the paper's full-mesh
// baseline (the single-domain resolver) and the hidden-terminal
// warehouse (the cluster engine), reusing one engine through Reset.
func (s *suite) mac() error {
	var resets []float64
	for _, c := range []struct {
		label, spec string
		horizon     float64
		batches     int
	}{
		{"fullmesh", "scenarios/paper-baseline.json", 3, 5},
		{"hidden", "scenarios/hidden-warehouse.json", 1.5, 5},
	} {
		var err error
		s.tr.do("mac."+c.label, s.root, func(id int) {
			var r []float64
			r, err = s.macCell(id, c.label, c.spec, sim.FromSeconds(c.horizon), c.batches, 8)
			resets = append(resets, r...)
		})
		if err != nil {
			return err
		}
	}
	s.vals["mac.reset_s"] = median(resets)
	return nil
}

// macCell runs batches of reps replications of one cell, building each
// batch's configs before the clock starts, and returns the Reset times.
func (s *suite) macCell(parent int, label, spec string, horizon sim.Time, batches, reps int) ([]float64, error) {
	c, err := scenario.CompileFile(spec)
	if err != nil {
		return nil, err
	}
	stream := sim.NewStream(c.Link.Seed + s.b.seed*seedStride)
	build := func(rep int) (mac.Config, error) { return c.MACConfig(stream.Child(uint64(rep)), horizon) }
	cfg, err := build(0)
	if err != nil {
		return nil, err
	}
	eng, err := mac.New(cfg)
	if err != nil {
		return nil, err
	}
	eng.Run() // the first run sizes the engine's arenas
	var fps, simRate, allocs, resets []float64
	var attempts, collisions int
	for bi := range batches {
		cfgs := make([]mac.Config, reps)
		for i := range cfgs {
			if cfgs[i], err = build(1 + bi*reps + i); err != nil {
				return nil, err
			}
		}
		frames, simS, runS := 0, 0.0, 0.0
		m0 := mallocs()
		for _, cfg := range cfgs {
			t0 := time.Now()
			rid := s.tr.begin("mac.reset", parent)
			err = eng.Reset(cfg)
			s.tr.end(rid)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			id := s.tr.begin("mac.run", parent)
			res := eng.Run()
			s.tr.end(id)
			runS += time.Since(t1).Seconds()
			resets = append(resets, t1.Sub(t0).Seconds())
			for _, st := range res.Stats {
				frames += st.Attempts
				attempts += st.Attempts
				collisions += st.Collisions
			}
			simS += res.End.Seconds()
		}
		allocs = append(allocs, float64(mallocs()-m0)/float64(frames))
		fps = append(fps, float64(frames)/runS)
		simRate = append(simRate, simS/runS)
	}
	p := "mac." + label + "."
	s.vals[p+"frames_per_s"] = median(fps)
	s.vals[p+"sim_s_per_wall_s"] = median(simRate)
	s.vals[p+"allocs_per_frame"] = median(allocs)
	if label == "hidden" {
		s.vals[p+"collision_frac"] = float64(collisions) / float64(attempts)
	}
	return resets, nil
}

// fig09Plan is the probing train of fig09 at this run's seed.
func (s *suite) fig09Plan() (*probe.TrainPlan, error) {
	p, _ := fig09(s.b.seed * seedStride)
	return probe.PlanTrain(transientLink(p), p.TrainLen, p.ProbeRateBps)
}

// probe measures train planning and single train replications through
// one reused meter, on fig09's train.
func (s *suite) probe() error {
	var err error
	s.tr.do("probe.bench", s.root, func(id int) {
		p, _ := fig09(s.b.seed * seedStride)
		link := transientLink(p)
		var plans []float64
		for range 200 {
			t0 := time.Now()
			_, err = probe.PlanTrain(link, p.TrainLen, p.ProbeRateBps)
			plans = append(plans, time.Since(t0).Seconds())
		}
		s.vals["probe.plan_s"] = median(plans)
		var plan *probe.TrainPlan
		if plan, err = s.fig09Plan(); err != nil {
			return
		}
		m := &probe.TrainMeter{}
		if _, err = plan.MeasureOne(m, 0); err != nil {
			return
		}
		const reps = 40
		var rates, allocs []float64
		for bi := range 5 {
			m0 := mallocs()
			t0 := time.Now()
			for r := range reps {
				sid := s.tr.begin("probe.measure_one", id)
				_, err = plan.MeasureOne(m, 1+bi*reps+r)
				s.tr.end(sid)
				if err != nil {
					return
				}
			}
			rates = append(rates, reps/time.Since(t0).Seconds())
			allocs = append(allocs, float64(mallocs()-m0)/reps)
		}
		s.vals["probe.train_reps_per_s"] = median(rates)
		s.vals["probe.allocs_per_rep"] = median(allocs)
	})
	return err
}

// composeFig09 is fig09 rebuilt from its layers' public calls: plan the
// train, measure the replications under MapBatches, index the delays,
// then the KS reduce. It must reproduce the registry driver's figure.
func (s *suite) composeFig09(parent int, sc experiments.Scale) (fig *experiments.Figure, simS, redS, ksS float64, err error) {
	p, opt := fig09(s.b.seed * seedStride)
	tr := s.tr
	t0 := time.Now()
	var plan *probe.TrainPlan
	tr.do("probe.plan", parent, func(int) {
		plan, err = probe.PlanTrain(transientLink(p), p.TrainLen, p.ProbeRateBps)
	})
	if err != nil {
		return
	}
	var samples []probe.TrainSample
	tr.do("runner.map_batches", parent, func(id int) {
		samples, err = runner.MapBatches(sc.Reps, sc.Workers, 0,
			func() *probe.TrainMeter { return &probe.TrainMeter{} },
			func(m *probe.TrainMeter, rep int) (probe.TrainSample, error) {
				sid := tr.begin("probe.measure_one", id)
				defer tr.end(sid)
				return plan.MeasureOne(m, rep)
			})
	})
	if err != nil {
		return
	}
	t1 := time.Now()
	var delays, queues [][]float64
	tr.do("probe.by_index", parent, func(int) {
		ts := &probe.TrainStats{Samples: samples}
		delays, queues = ts.DelaysByIndex(), ts.QueueByIndex()
	})
	n := min(opt.Packets, p.TrainLen)
	k0 := time.Now()
	ks := series{Name: "KS value"}
	thr := series{Name: "threshold 95% CI"}
	tr.do("stats.ks", parent, func(int) {
		tail := stats.Tail(delays, opt.TailFrom)
		ecdf := stats.NewECDF(tail)
		for i := range n {
			col := stats.Column(delays, i)
			if len(col) == 0 {
				continue
			}
			r := stats.KSTwoSampleInterpECDF(col, ecdf, opt.Alpha)
			ks.add(float64(i+1), r.D)
			thr.add(float64(i+1), r.Threshold)
		}
	})
	ksS = time.Since(k0).Seconds()
	fig = &experiments.Figure{
		ID:     "fig09",
		Title:  "KS test of per-packet access delay vs steady state",
		XLabel: "packet #",
		YLabel: "KS value",
		Series: []experiments.Series{experiments.Series(ks), experiments.Series(thr)},
	}
	tr.do("stats.running_means", parent, func(int) {
		if len(queues) > 0 && len(queues[0]) > 0 {
			q := series{Name: "mean contender queue (pkts)"}
			for i, v := range stats.RunningMeans(queues) {
				if i < n {
					q.add(float64(i+1), v)
				}
			}
			fig.Series = append(fig.Series, experiments.Series(q))
		}
	})
	return fig, t1.Sub(t0).Seconds(), time.Since(t1).Seconds(), ksS, nil
}

// series is experiments.Series with an append method.
type series experiments.Series

func (s *series) add(x, y float64) { s.X, s.Y = append(s.X, x), append(s.Y, y) }

// fig09 times the composed pipeline's simulate and reduce phases, the
// KS and MSER reductions, and checks the composition against the
// registry configuration's own output for the same seed.
func (s *suite) fig09() error {
	sc := experiments.Default()
	sc.Workers = s.b.workers
	var simS, redS, ksS []float64
	var fig *experiments.Figure
	for range 3 {
		var err error
		var a, r, k float64
		s.tr.do("experiments.fig09.compose", s.root, func(id int) {
			fig, a, r, k, err = s.composeFig09(id, sc)
		})
		if err != nil {
			return err
		}
		simS, redS, ksS = append(simS, a), append(redS, r), append(ksS, k)
	}
	s.vals["experiments.fig09.simulate_s"] = median(simS)
	s.vals["experiments.fig09.reduce_s"] = median(redS)
	s.vals["experiments.fig09.reduce_frac"] = median(redS) / (median(simS) + median(redS))
	s.vals["stats.ks_s"] = median(ksS)

	// The registry configuration at one worker and at the benchmark's
	// count, alternated three times; the last figure is the reference.
	p, opt := fig09(s.b.seed * seedStride)
	walls := map[int][]float64{}
	var want *experiments.Figure
	for range 3 {
		for _, w := range []int{1, s.b.workers} {
			wsc := sc
			wsc.Workers = w
			var err error
			t0 := time.Now()
			s.tr.do("experiments.fig09", s.root, func(int) { want, err = experiments.FigKS("fig09", p, wsc, opt) })
			walls[w] = append(walls[w], time.Since(t0).Seconds())
			if err != nil {
				return err
			}
		}
	}
	s.vals["experiments.fig09.scaling_2v1"] = median(walls[1]) / median(walls[s.b.workers])
	s.figWalls["fig09"] = append(s.figWalls["fig09"], walls[s.b.workers]...)
	s.b.attempted++
	ok := fig.CSV() == want.CSV()
	if !ok {
		s.b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: composed fig09 differs from the registry driver's output")
	}
	emit(s.b.out, "composition", map[string]any{"fig09_identical": ok})

	// MSER-2 over each replication's delay series, as the paper's
	// warm-up detector is applied.
	plan, err := s.fig09Plan()
	if err != nil {
		return err
	}
	m := &probe.TrainMeter{}
	var rows [][]float64
	for rep := range 50 {
		ts, err := plan.MeasureOne(m, rep)
		if err != nil {
			return err
		}
		rows = append(rows, ts.AccessDelays)
	}
	var mser []float64
	for range 5 {
		t0 := time.Now()
		s.tr.do("stats.mser", s.root, func(int) {
			for _, r := range rows {
				sink += float64(stats.MSERm(r, 2).Cut)
			}
		})
		mser = append(mser, time.Since(t0).Seconds())
	}
	s.vals["stats.mser_s"] = median(mser)
	return nil
}

// scaling is fig09's replication throughput through MapBatches on the
// benchmark's worker count against one worker, alternating the two.
func (s *suite) scaling() error {
	plan, err := s.fig09Plan()
	if err != nil {
		return err
	}
	const reps = 120
	rate := map[int][]float64{}
	for range 3 {
		for _, w := range []int{1, s.b.workers} {
			t0 := time.Now()
			s.tr.do("runner.map_batches", s.root, func(int) {
				_, err = runner.MapBatches(reps, w, 0,
					func() *probe.TrainMeter { return &probe.TrainMeter{} },
					func(m *probe.TrainMeter, rep int) (probe.TrainSample, error) { return plan.MeasureOne(m, rep) })
			})
			if err != nil {
				return err
			}
			rate[w] = append(rate[w], reps/time.Since(t0).Seconds())
		}
	}
	s.vals["runner.scaling_2v1"] = median(rate[s.b.workers]) / median(rate[1])
	return nil
}

// specFiles are the checked-in scenario specs.
func specFiles() ([]string, error) {
	files, err := filepath.Glob("scenarios/*.json")
	if err == nil && len(files) == 0 {
		err = fmt.Errorf("no scenario specs under scenarios/")
	}
	return files, err
}

// scenario times compiling every checked-in spec, as one set.
func (s *suite) scenario() error {
	files, err := specFiles()
	if err != nil {
		return err
	}
	var times []float64
	for range 10 {
		t0 := time.Now()
		s.tr.do("scenario.compile", s.root, func(int) {
			for _, f := range files {
				if _, err = scenario.CompileFile(f); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	s.vals["scenario.compile_s"] = median(times)
	return nil
}

// estimate runs each estimator family on the paper's baseline cell
// under the library's budget, and the ground-truth measurement.
func (s *suite) estimate() error {
	c, err := scenario.CompileFile("scenarios/paper-baseline.json")
	if err != nil {
		return err
	}
	link := c.Link
	link.Workers = 1
	cfg := estimate.JobConfig{TargetRel: 0.1, Budget: estimate.Budget{MaxProbeSeconds: 60, MaxPackets: 200000}}
	rounds, busy := 0, 0.0
	for _, k := range estimate.Kinds() {
		var times []float64
		for i := range 3 {
			l := link
			l.Seed = c.Link.Seed + s.b.seed*seedStride + int64(i)
			var est estimate.Estimate
			t0 := time.Now()
			s.tr.do("estimate."+string(k), s.root, func(int) { est, err = estimate.RunKind(l, k, cfg) })
			d := time.Since(t0).Seconds()
			if err != nil {
				// A failed estimate is an output, not a broken run.
				fmt.Fprintf(os.Stderr, "perfbench: estimate %s: %v\n", k, err)
			}
			times = append(times, d)
			rounds += est.Rounds
			busy += d
		}
		s.vals["estimate."+string(k)+".job_s"] = median(times)
	}
	s.vals["estimate.rounds_per_s"] = float64(rounds) / busy
	var truth []float64
	for i := range 3 {
		l := link
		l.Seed = c.Link.Seed + s.b.seed*seedStride + int64(i)
		t0 := time.Now()
		s.tr.do("estimate.truth", s.root, func(int) { _, err = estimate.GroundTruth(l, estimate.TruthConfig{}) })
		if err != nil {
			return err
		}
		truth = append(truth, time.Since(t0).Seconds())
	}
	s.vals["estimate.truth_s"] = median(truth)
	return nil
}

// campaign reports the fleet meter of the workload's own campaign
// passes, or of one library run when the workload has none, and times
// compacting and re-reading the 63-record log.
func (s *suite) campaign() error {
	if len(s.campStats) == 0 {
		prep, err := setupCampaign(s.b.seed)
		if err != nil {
			return err
		}
		var p passOut
		s.tr.do("perfbench.pass", s.root, func(id int) { p = prep.pass(0, s.b.workers, s.tr, id) })
		s.b.count(p)
		s.campStats, s.recs = append(s.campStats, p.meter), p.recs
	}
	var rate, p99 []float64
	for _, st := range s.campStats {
		rate, p99 = append(rate, st.UnitsPerSec), append(p99, st.P99Seconds)
	}
	s.vals["campaign.jobs_per_s"] = median(rate)
	s.vals["campaign.job_p99_s"] = median(p99)

	path := filepath.Join(scratchDir(), "compact.jsonl")
	defer os.Remove(path)
	var times []float64
	for range 20 {
		var err error
		t0 := time.Now()
		s.tr.do("campaign.log", s.root, func(int) {
			if err = campaign.WriteCompact(path, s.recs); err == nil {
				_, err = campaign.ReadLog(path)
			}
		})
		if err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	s.vals["campaign.log_s"] = median(times)
	return nil
}

// pathselSpecs are the upstream cells of the pathsel layer measurement,
// compiled from checked-in specs the way cmd/pathsel -paths does.
var pathselSpecs = []string{"scenarios/paper-baseline.json", "scenarios/lossy-fer-cell.json", "scenarios/fading-backhaul.json"}

// pathsel runs selection epochs through one reused meter.
func (s *suite) pathsel() error {
	p := experiments.DefaultPathsel()
	base := p.Seed + s.b.seed*seedStride
	var ups []probe.Link
	for i, f := range pathselSpecs {
		c, err := scenario.CompileFile(f)
		if err != nil {
			return err
		}
		l := c.Link
		l.Seed = base + int64(i)*977
		ups = append(ups, l)
	}
	cfg := pathsel.Config{Paths: ups, Epochs: p.Epochs, EpochSeconds: p.EpochSeconds,
		TrainLen: p.TrainLen, RateBps: p.RateBps, Policy: pathsel.PolicyEMA,
		Alpha: p.Alpha, Hysteresis: p.Hysteresis, Explore: p.Explore}
	m := &pathsel.Meter{}
	if _, err := pathsel.Run(cfg, 0, m); err != nil {
		return err
	}
	const reps = 10
	var rates, allocs []float64
	for bi := range 5 {
		var err error
		epochs := 0
		m0 := mallocs()
		t0 := time.Now()
		s.tr.do("pathsel.run", s.root, func(int) {
			for r := range reps {
				var res *pathsel.Result
				if res, err = pathsel.Run(cfg, 1+bi*reps+r, m); err != nil {
					return
				}
				epochs += len(res.Epochs)
			}
		})
		if err != nil {
			return err
		}
		rates = append(rates, float64(epochs)/time.Since(t0).Seconds())
		allocs = append(allocs, float64(mallocs()-m0)/float64(epochs))
	}
	s.vals["pathsel.epochs_per_s"] = median(rates)
	s.vals["pathsel.allocs_per_epoch"] = median(allocs)
	return nil
}

// figures fills each figure's wall time from the workload's passes,
// running once here every figure the workload does not include.
func (s *suite) figures() error {
	sc := experiments.Default()
	sc.Workers = s.b.workers
	for _, j := range figureJobs(s.b.seed) {
		if len(s.figWalls[j.id]) == 0 {
			var err error
			t0 := time.Now()
			s.tr.do("experiments."+j.id, s.root, func(int) { _, err = j.run(sc) })
			s.b.attempted++
			if err != nil {
				s.b.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.id, err)
			}
			s.figWalls[j.id] = append(s.figWalls[j.id], time.Since(t0).Seconds())
		}
		s.vals["experiments."+j.id+".wall_s"] = median(s.figWalls[j.id])
	}
	return nil
}
