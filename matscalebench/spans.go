package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of matscale.
// Spans of one job (or one workload pass) share RunID; Parent is the
// index of the enclosing span, -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	RunID  string `json:"run_id"`
	Parent int    `json:"parent"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Begin opens a span and returns its index.
func (r *Recorder) Begin(name, layer, runID string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Layer: layer, RunID: runID, Parent: parent, Start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// End closes span i.
func (r *Recorder) End(i int) {
	r.mu.Lock()
	r.spans[i].End = time.Since(r.t0)
	r.mu.Unlock()
}

// Add records a span whose bounds were measured by the caller.
func (r *Recorder) Add(name, layer, runID string, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{Name: name, Layer: layer, RunID: runID, Parent: parent,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// Time runs fn inside a span.
func (r *Recorder) Time(name, layer, runID string, parent int, fn func()) {
	i := r.Begin(name, layer, runID, parent)
	fn()
	r.End(i)
}

// SelfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of it its child spans cover.
func (r *Recorder) SelfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans)
}

func selfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := kids[0].Start, kids[0].End
	flush := func() {
		s, e := max(curS, parent.Start), min(curE, parent.End)
		if e > s {
			total += e - s
		}
	}
	for _, k := range kids[1:] {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
			continue
		}
		curE = max(curE, k.End)
	}
	flush()
	return total
}

// WriteFile writes the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
