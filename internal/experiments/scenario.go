package experiments

import (
	"csmabw/internal/probe"
	"csmabw/internal/runner"
	"csmabw/internal/sim"
)

// Scenario is the declarative form of a figure driver: instead of a
// hand-rolled loop over replications or sweep points, a driver states
// how many independent units it has, how to run one unit, and how to
// merge the ordered results into a Figure. The shared Run harness owns
// scheduling, so every driver gets worker-pool parallelism — and the
// determinism contract that comes with it — for free.
type Scenario[T any] struct {
	// Seed roots the scenario's RNG substream tree; unit i receives the
	// hierarchical substream Child(i), identical at any worker count.
	Seed int64
	// Units is the number of independent units of work (replications,
	// sweep points, or variant×replication products).
	Units int
	// Build prepares shared read-only state and validates
	// driver-specific parameters (the Scale itself is validated by Run).
	// It runs once, before any unit. Optional.
	Build func() error
	// RunOne executes unit i on m, the executing worker's train meter:
	// units that measure probe trains pass it to TrainPlan.MeasureOne so
	// one simulation engine is reused across the units a worker runs;
	// other units ignore it. RunOne must be a pure function of i: any
	// randomness comes from stream (or another index-derived source),
	// never from shared mutable state, and the meter is an arena, never
	// accumulated statistics — so unit i computes the same value
	// whether units run serially or on any number of workers.
	RunOne func(m *probe.TrainMeter, i int, stream sim.Stream) (T, error)
	// Reduce merges the results, ordered by unit index independent of
	// completion order, into the figure.
	Reduce func(results []T) (*Figure, error)
}

// Run executes the scenario on a worker pool of sc.Workers goroutines
// (GOMAXPROCS when zero), with units claimed in contiguous batches and
// one train meter per worker reused across the units it executes. For
// a given seed the returned figure is byte-identical at every worker
// count.
func Run[T any](s Scenario[T], sc Scale) (*Figure, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if s.Build != nil {
		if err := s.Build(); err != nil {
			return nil, err
		}
	}
	root := sim.NewStream(s.Seed)
	results, err := runner.MapBatches(s.Units, sc.Workers, 0,
		func() *probe.TrainMeter { return &probe.TrainMeter{} },
		func(m *probe.TrainMeter, i int) (T, error) {
			return s.RunOne(m, i, root.Child(uint64(i)))
		})
	if err != nil {
		return nil, err
	}
	return s.Reduce(results)
}
