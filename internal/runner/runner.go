// Package runner is the worker-pool replication engine underneath every
// replicated experiment: it executes N independent units of work across
// a bounded set of workers and merges the results deterministically,
// ordered by unit index regardless of completion order.
//
// Determinism is a contract between this package and its callers: Map
// guarantees that results land at their unit's index and that no unit
// runs twice; the caller guarantees that unit i's work is a pure
// function of i (per-replication RNG derived via sim.Stream.Child(i),
// never shared mutable state). Under that contract a figure generated
// with one worker is byte-identical to the same figure generated with
// any other worker count.
//
// Work is claimed in contiguous chunks of unit indices rather than one
// unit at a time. Paper-style replications are short (~0.1-1 ms), so a
// per-unit claim — one atomic increment, one closure dispatch, one
// cache-line ping between cores per ~0.15 ms of work — is what turned
// the worker sweep into a plateau. A chunk amortizes that overhead over
// ChunkSize units while scheduling stays dynamic (workers still race
// for the next chunk, so a slow chunk cannot strand the tail on one
// worker). Chunking is invisible to the results: values land at their
// unit's index either way.
//
// MapBatches additionally gives every worker goroutine a private state
// value, built once when the worker starts and handed to each unit that
// worker executes. That is the hook for per-worker resource reuse — a
// simulation engine whose arenas and scratch survive across the
// replications a worker runs (mac.Engine.Reset), so a replication
// allocates almost nothing and touches no memory shared with other
// workers.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values below 1 mean "use
// the hardware", i.e. GOMAXPROCS.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// chunksPerWorker tunes automatic chunk sizing: each worker claims
// about this many chunks over a run, keeping dynamic load balancing
// (a worker that drew a slow chunk claims fewer later ones) while
// amortizing the per-claim atomic and dispatch overhead.
const chunksPerWorker = 4

// DefaultChunk returns the chunk size Map uses for n units on w
// (resolved) workers: n/(w*chunksPerWorker), at least 1. With one
// worker there is nothing to balance, so the whole range is one chunk.
func DefaultChunk(n, w int) int {
	if w <= 1 {
		return n
	}
	c := n / (w * chunksPerWorker)
	if c < 1 {
		c = 1
	}
	return c
}

// Map runs fn(0), fn(1), …, fn(n-1) on up to workers goroutines and
// returns the n results in index order. Chunks of units are claimed
// from a shared counter (DefaultChunk sizes them), so scheduling is
// dynamic but the merge is deterministic.
//
// If any unit fails, Map stops claiming new chunks, abandons the
// unprocessed remainder of every in-flight chunk, waits for in-flight
// units to finish, and returns the failure with the lowest unit index
// among the units that ran (so the reported error is stable across
// schedules that hit the same errors). A nil error guarantees every
// unit ran exactly once.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapBatches(n, workers, 0, nil, func(_ struct{}, i int) (T, error) {
		return fn(i)
	})
}

// MapBatches is the full form of Map: an explicit chunk size plus
// per-worker state. Workers claim contiguous blocks of chunk unit
// indices at a time; a chunk size below 1 selects DefaultChunk.
// Results and the error contract are identical to Map at any chunk
// size; only the claim granularity — and therefore the dispatch
// overhead — changes.
//
// newWorker, when non-nil, runs once at the start of each worker
// goroutine (never concurrently with that worker's units) and its value
// is passed to every fn call that worker executes — the hook for
// resources that are expensive to build and safe to reuse serially,
// such as a simulation engine reset between replications. With a nil
// newWorker every fn call receives the zero value of W.
//
// The determinism contract extends to worker state: fn(w, i) must
// return the same value for unit i regardless of which worker runs it
// and which units that worker ran before — i.e. w is a cache or arena,
// never a statistic accumulated across units.
func MapBatches[T, W any](n, workers, chunk int, newWorker func() W, fn func(w W, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if chunk < 1 {
		chunk = DefaultChunk(n, w)
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws W
			if newWorker != nil {
				ws = newWorker()
			}
			for !failed.Load() {
				hi := int(next.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if failed.Load() {
						return
					}
					v, err := fn(ws, i)
					if err != nil {
						errs[i] = err
						failed.Store(true)
						return
					}
					out[i] = v
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: unit %d: %w", i, err)
		}
	}
	return out, nil
}
