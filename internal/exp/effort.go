package exp

import "fmt"

// Effort modes. The zero value ("") means exact: full simulation of the
// (possibly cap-truncated) schedule on the engine the other knobs pick.
const (
	// EffortExact fully simulates every scheduled epoch on the engine
	// IntraCellWorkers selects. It is exact only with respect to that
	// engine: the epoch engine (IntraCellWorkers ≥ 1) gives different
	// answers from the monolithic one (see Effort).
	EffortExact = "exact"
	// EffortSampled simulates a seeded, stratified subset of each cell's
	// epochs and scales the totals up with confidence intervals
	// (npu.Config.Sampled; see internal/npu/epoch.go).
	EffortSampled = "sampled"
	// EffortQuick shrinks the sweep grid itself (the legacy Quick flag):
	// two models, one batch, tight caps. Cells still simulate fully.
	EffortQuick = "quick"
)

// Effort is the one simulation-effort type: it is threaded end to end
// through neummu.Options, exp.Options, the neuserve request bodies (as
// serve.WireEffort, whose JSON form is this struct's) and the cluster
// wire protocol. Every field is omitempty, so a zero effort marshals to
// {} and request bodies that never set one are unchanged.
//
// Engines. IntraCellWorkers = 0 runs the monolithic engine, the
// reference every figure is produced with. Any count ≥ 1 runs the
// epoch-structured engine, which starts every epoch with cold TLB and
// path caches, so switching from 0 to ≥ 1 changes the answer: measured
// normalized IOMMU performance (batch 4, 4K pages, harness caps) goes
// from 0.222 to 0.087 on RNN-2, −25% on CNN-3 and −10% on TF-1, while
// NeuMMU moves by less than 1%. Among counts ≥ 1 the results are
// byte-identical and the count trades wall-clock time only, which is why
// cache and routing keys carry the epoch-engine bit, never the count.
//
// Sampled mode runs on the epoch engine too: its confidence intervals
// bracket the epoch engine's full-simulation result, not the monolithic
// one.
type Effort struct {
	// Mode selects "exact" (default), "sampled", or "quick". Unknown
	// modes are rejected by Validate, never silently defaulted.
	Mode string `json:"mode,omitempty"`
	// RepeatCap / TileCap truncate repeated layers and per-layer tiles;
	// zero keeps the harness defaults, negative simulates everything.
	RepeatCap int `json:"repeat_cap,omitempty"`
	TileCap   int `json:"tile_cap,omitempty"`
	// TargetCI is the requested relative 95% CI half-width for sampled
	// mode (0 = 0.05); it sizes the sampling fraction. Rejected outside
	// sampled mode.
	TargetCI float64 `json:"target_ci,omitempty"`
	// IntraCellWorkers, when positive, runs every single-cell simulation
	// on the epoch engine, split across that many cores at epoch
	// barriers (see the Engines paragraph above).
	IntraCellWorkers int `json:"intra_cell_workers,omitempty"`
}

// Sampled reports whether the effort selects statistical simulation.
func (e Effort) Sampled() bool { return e.Mode == EffortSampled }

// Epoched reports whether cells run on the epoch-structured engine —
// the property that must be keyed, as opposed to the worker count,
// which only trades wall-clock time among counts ≥ 1.
func (e Effort) Epoched() bool { return e.IntraCellWorkers > 0 || e.Sampled() }

// Validate rejects efforts no engine implements. Unknown modes are an
// error, never a silent default — a caller asking for a mode this
// build does not know must not receive exact results labeled as it.
func (e Effort) Validate() error {
	switch e.Mode {
	case "", EffortExact, EffortSampled, EffortQuick:
	default:
		return fmt.Errorf("unknown effort mode %q (have exact, sampled, quick)", e.Mode)
	}
	if e.TargetCI < 0 || e.TargetCI >= 1 {
		return fmt.Errorf("effort target_ci %g out of range [0, 1)", e.TargetCI)
	}
	if e.IntraCellWorkers < 0 {
		return fmt.Errorf("effort intra_cell_workers %d is negative", e.IntraCellWorkers)
	}
	if e.TargetCI > 0 && e.Mode != EffortSampled {
		return fmt.Errorf("effort target_ci requires mode \"sampled\" (mode is %q)", e.Mode)
	}
	return nil
}

// WithLegacy folds the deprecated flat quick/repeat_cap/tile_cap knobs
// into e. It is the only place they are interpreted: exp.Options, the
// neuserve JSON bodies and the figure query strings all go through it.
// e's own fields win wherever set: an explicit mode (even "exact")
// overrides quick, and non-zero caps override the flat caps.
func (e Effort) WithLegacy(quick bool, repeatCap, tileCap int) Effort {
	if e.Mode == "" && quick {
		e.Mode = EffortQuick
	}
	if e.RepeatCap == 0 {
		e.RepeatCap = repeatCap
	}
	if e.TileCap == 0 {
		e.TileCap = tileCap
	}
	return e
}

// Normalized returns the canonical form of e: "exact" spelled as the
// empty mode, the default caps filled in (2 and 6 in quick mode, 3 and 0
// otherwise) and the default sampled CI target (0.05). Two efforts that
// run the same harness normalize to the same value, so caches and
// routing hashes key on it.
func (e Effort) Normalized() Effort {
	if e.Mode == EffortExact {
		e.Mode = ""
	}
	if e.Sampled() && e.TargetCI == 0 {
		e.TargetCI = 0.05
	}
	if e.Mode == EffortQuick {
		if e.RepeatCap == 0 {
			e.RepeatCap = 2
		}
		if e.TileCap == 0 {
			e.TileCap = 6
		}
	} else if e.RepeatCap == 0 {
		e.RepeatCap = 3
	}
	return e
}
