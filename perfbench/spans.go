package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neummu/internal/stats"
)

// spanRec records the benchmark's own spans: one around each call it
// makes into a layer of the program (constructors, store.Open, the replay
// through workloads.BuildPlan / npu.BuildTranslations / npu.Run,
// figures.Render). A nil *spanRec records nothing, so untraced runs pass
// nil and pay only a nil check.
type spanRec struct {
	mu    sync.Mutex
	spans []bspan
	open  []int // stack of open span indices (single caller goroutine)
}

type bspan struct {
	Name   string    `json:"name"`
	Parent int       `json:"parent"` // -1 = root
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// begin opens a span as a child of the innermost open span and returns
// the function that closes it. Spans must nest (close in LIFO order).
func (r *spanRec) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, bspan{Name: name, Parent: parent, Start: time.Now()})
	r.open = append(r.open, idx)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.spans[idx].End = time.Now()
		r.open = r.open[:len(r.open)-1]
		r.mu.Unlock()
	}
}

// selfTimes sums each span name's self time: its duration minus the time
// its child spans cover.
func (r *spanRec) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	for i, s := range r.spans {
		out[s.Name] += s.End.Sub(s.Start) - child[i]
	}
	return out
}

// write saves the spans as JSON at path.
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median is the nearest-rank median of xs; 0 for an empty sample.
func median(xs []float64) float64 { return stats.Percentile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
