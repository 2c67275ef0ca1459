package trace

import (
	"sort"
	"sync"
)

// DefaultBuckets are the stage-latency histogram bounds in seconds:
// roughly exponential from 100µs (a warm cache hit) to 60s (a straggling
// full-effort cell), chosen so the warm/cold and disk-warm gaps the
// benchmark measures (perfbench/README.md) land many buckets apart and
// are visible as mass shifts, not as noise within one bucket. Prometheus convention: each bound is an inclusive upper edge
// and an implicit +Inf bucket follows.
var DefaultBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// StageHistograms is one latency histogram per stage of the taxonomy,
// recorded in seconds. Zero-duration stages are not recorded — a stage a
// span never entered (no disk tier configured, say) contributes no
// observation, so histogram counts mean "times this stage actually ran".
type StageHistograms struct {
	mu     sync.Mutex
	bounds []float64
	counts [NumStages][]int64 // per stage, len(bounds)+1 (+Inf last)
	sums   [NumStages]float64 // seconds
	totals [NumStages]int64
}

// NewStageHistograms returns histograms over DefaultBuckets.
func NewStageHistograms() *StageHistograms {
	h := &StageHistograms{bounds: DefaultBuckets}
	for i := range h.counts {
		h.counts[i] = make([]int64, len(h.bounds)+1)
	}
	return h
}

// Record folds one span's stage durations (nanoseconds) in.
func (h *StageHistograms) Record(st Stages) {
	h.mu.Lock()
	for i, ns := range st {
		if ns <= 0 {
			continue
		}
		sec := float64(ns) / 1e9
		idx := sort.SearchFloat64s(h.bounds, sec)
		// SearchFloat64s finds the first bound >= sec — exactly the
		// Prometheus le (inclusive upper edge) bucket; len(bounds) is +Inf.
		h.counts[i][idx]++
		h.sums[i] += sec
		h.totals[i]++
	}
	h.mu.Unlock()
}

// StageHistogram is the snapshot of one stage's histogram.
type StageHistogram struct {
	Stage string `json:"stage"`
	Count int64  `json:"count"`
	// SumSeconds is the total observed time, so mean = sum/count and a
	// Prometheus histogram's _sum/_count pair can be emitted exactly.
	SumSeconds float64 `json:"sum_seconds"`
	// Bounds are the bucket upper edges in seconds; Cumulative[i] counts
	// observations <= Bounds[i], and the final extra element counts
	// everything (the +Inf bucket) — Prometheus histogram semantics.
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"`
}

// Snapshot returns every stage's histogram in taxonomy order. Stages with
// zero observations are included (a dashboard can tell "never ran" from
// "not exported").
func (h *StageHistograms) Snapshot() []StageHistogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]StageHistogram, NumStages)
	for i := range out {
		cum := make([]int64, len(h.bounds)+1)
		var run int64
		for j, c := range h.counts[i] {
			run += c
			cum[j] = run
		}
		out[i] = StageHistogram{
			Stage:      Stage(i).String(),
			Count:      h.totals[i],
			SumSeconds: h.sums[i],
			Bounds:     h.bounds,
			Cumulative: cum,
		}
	}
	return out
}
