package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, kept in memory until the run
// ends. Times are offsets from the tracer's start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`   // "<layer>.<call>"
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans from any goroutine. A nil *tracer is the
// untraced run: every method returns at once and records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and passes it the span's ID, for children.
func (t *tracer) do(name string, parent int, fn func(id int)) {
	id := t.begin(name, parent)
	defer t.end(id)
	fn(id)
}

// layer is the module a span belongs to: its name up to the first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover. Children running in parallel on
// several workers are merged first, so overlap is not subtracted twice.
func selfTimes(spans []span) map[string]float64 {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[layer(s.Name)] += (s.End - s.Start) - covered(kids[s.ID])
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, lo, hi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
