package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(37, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 37 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEachUnitOnce(t *testing.T) {
	var counts [64]atomic.Int32
	_, err := Map(len(counts), 8, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("unit %d ran %d times", i, c)
		}
	}
}

func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Map(100, 4, func(i int) (int, error) {
		if i == 13 {
			return 0, fmt.Errorf("unit 13: %w", sentinel)
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "unit 13") {
		t.Errorf("error lost unit context: %v", err)
	}
}

func TestMapErrorLowestIndexWins(t *testing.T) {
	// Serial execution hits unit 2 first; the reported index must be 2
	// even though later units would also fail.
	_, err := Map(10, 1, func(i int) (int, error) {
		if i >= 2 {
			return 0, errors.New("fail")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "unit 2") {
		t.Fatalf("want failure at unit 2, got %v", err)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, 4, func(i int) (int, error) {
		t.Error("fn called for empty input")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit count not honoured")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("auto worker count must be at least 1")
	}
}

func TestDefaultChunk(t *testing.T) {
	cases := []struct {
		n, w, want int
	}{
		{100, 1, 100}, // one worker: nothing to balance, one chunk
		{100, 0, 100}, // non-positive resolved counts behave like 1
		{100, 4, 6},   // n/(w*4)
		{100, 8, 3},
		{7, 8, 1},  // fewer units than workers: floor at 1
		{1, 16, 1}, // single unit
		{32, 2, 4}, // exact division
		{33, 2, 4}, // remainder truncates, never rounds to 0
	}
	for _, tc := range cases {
		if got := DefaultChunk(tc.n, tc.w); got != tc.want {
			t.Errorf("DefaultChunk(%d, %d) = %d, want %d", tc.n, tc.w, got, tc.want)
		}
	}
}

// TestMapChunkedEdgeCases drives explicit MapBatches chunk sizes
// through the shapes that exercise the claim-loop boundaries: a chunk larger than
// n, a chunk of one (per-unit claiming, the pre-batching behaviour), n
// not divisible by the chunk (short final chunk), and chunk == n.
// Every shape must yield the identical ordered results with each unit
// run exactly once.
func TestMapChunkedEdgeCases(t *testing.T) {
	cases := []struct {
		name              string
		n, workers, chunk int
	}{
		{"chunk larger than n", 5, 4, 100},
		{"chunk of one", 37, 4, 1},
		{"n not divisible", 37, 4, 5},
		{"chunk equals n", 16, 4, 16},
		{"auto chunk", 37, 4, 0},
		{"single unit", 1, 8, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var counts [64]atomic.Int32
			got, err := MapBatches(tc.n, tc.workers, tc.chunk, nil, func(_ struct{}, i int) (int, error) {
				counts[i].Add(1)
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.n {
				t.Fatalf("%d results, want %d", len(got), tc.n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result %d = %d, want %d", i, v, i*i)
				}
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("unit %d ran %d times", i, c)
				}
			}
		})
	}
}

// TestMapChunkedErrorStopsClaiming asserts MapBatches' failure
// contract under chunked claiming: after a unit fails, no new chunk is claimed, in-flight
// chunks abandon their remainder, and the reported unit index is the
// lowest among the units that actually ran. With one worker and chunks
// of 4 the failing unit is deterministic, and units in chunks beyond
// the failure must never run.
func TestMapChunkedErrorStopsClaiming(t *testing.T) {
	var ran [40]atomic.Int32
	_, err := MapBatches(40, 1, 4, nil, func(_ struct{}, i int) (int, error) {
		ran[i].Add(1)
		if i >= 6 {
			return 0, errors.New("fail")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "unit 6") {
		t.Fatalf("want failure at unit 6, got %v", err)
	}
	// Unit 6 is in the chunk [4,8): that chunk's remainder (unit 7) is
	// abandoned and the chunks beyond it are never claimed.
	for i := 7; i < 40; i++ {
		if ran[i].Load() != 0 {
			t.Fatalf("unit %d ran after the failure at unit 6", i)
		}
	}
}

// TestMapBatchesWorkerState asserts the per-worker state contract:
// newWorker runs once per worker goroutine (not per unit or per chunk),
// and every unit a worker executes receives that worker's value.
func TestMapBatchesWorkerState(t *testing.T) {
	const n, workers = 64, 4
	var built atomic.Int32
	type state struct{ id int32 }
	got, err := MapBatches(n, workers, 2,
		func() *state { return &state{id: built.Add(1)} },
		func(w *state, i int) (int32, error) {
			if w == nil || w.id < 1 {
				t.Errorf("unit %d: missing worker state", i)
			}
			return w.id, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if b := built.Load(); b < 1 || b > workers {
		t.Fatalf("newWorker ran %d times for %d workers", b, workers)
	}
	// Every unit saw some worker's state (ids are 1..built).
	for i, id := range got {
		if id < 1 || id > built.Load() {
			t.Fatalf("unit %d saw worker id %d outside [1, %d]", i, id, built.Load())
		}
	}
}

// TestMapBatchesNilWorkerConstructor: the zero value of W is handed
// to fn when no constructor is given (the path Map takes).
func TestMapBatchesNilWorkerConstructor(t *testing.T) {
	got, err := MapBatches(8, 2, 0, nil, func(w int, i int) (int, error) {
		return w + i, nil // w is always the zero int
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("unit %d: zero worker state not passed (got %d)", i, v)
		}
	}
}
