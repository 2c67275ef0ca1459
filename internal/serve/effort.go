package serve

import (
	"neummu/internal/exp"
	"neummu/internal/npu"
)

// WireEffort is the effort object of /v1/sweep, /v1/sim and /v1/cells
// bodies: {"effort": {"mode": ...}}. It is exp.Effort itself — one type
// from the JSON body to the simulator — and every field is omitempty, so
// requests that set no effort object marshal to exactly the bytes they
// always did, which keeps cluster sweep hashes and journal headers
// stable. The legacy flat quick/repeat_cap/tile_cap request fields
// remain accepted (and byte-identical in behavior) but deprecated;
// requests still using them are answered with an X-Neuserve-Deprecated
// header.
type WireEffort = exp.Effort

// SampleJSON is the per-cell sampling audit carried on sweep rows and
// cell lines when the cell ran in sampled mode (absent — not null — for
// other cells, so their responses are byte-identical to pre-redesign
// ones). CyclesLo/CyclesHi bracket the Cycles estimate with a 95%
// confidence interval around the epoch engine's full-simulation result;
// Seed reproduces the exact epoch subset.
type SampleJSON struct {
	Population int     `json:"population"`
	Simulated  int     `json:"simulated"`
	Seed       uint64  `json:"seed"`
	TargetCI   float64 `json:"target_ci"`
	RelCI95    float64 `json:"rel_ci95"`
	CyclesLo   int64   `json:"cycles_lo"`
	CyclesHi   int64   `json:"cycles_hi"`
}

// sampleJSON converts a simulation's sampling audit to its wire form
// (nil in, nil out — unsampled cells carry no audit).
func sampleJSON(s *npu.SampleStats) *SampleJSON {
	if s == nil {
		return nil
	}
	return &SampleJSON{
		Population: s.Population, Simulated: s.Simulated, Seed: s.Seed,
		TargetCI: s.TargetCI, RelCI95: s.RelCI95,
		CyclesLo: int64(s.CyclesLo), CyclesHi: int64(s.CyclesHi),
	}
}

// requestEffort validates a request's effort object and folds its legacy
// flat fields in (exp.Effort.WithLegacy: the object wins wherever it
// speaks). JSON bodies and figure query strings both come through here.
// Unknown modes and out-of-range knobs are a bad_request, never a silent
// default.
func requestEffort(we *WireEffort, quick bool, repeatCap, tileCap int) (exp.Effort, error) {
	var e exp.Effort
	if we != nil {
		if err := we.Validate(); err != nil {
			return e, err
		}
		e = *we
	}
	return e.WithLegacy(quick, repeatCap, tileCap), nil
}

// DeprecationHeader is set on responses to requests that selected effort
// through the legacy flat quick/repeat_cap/tile_cap fields instead of the
// effort object. It is a header, not a body field, so legacy response
// bodies stay byte-identical.
const DeprecationHeader = "X-Neuserve-Deprecated"

const deprecationNote = "quick/repeat_cap/tile_cap are deprecated; use the effort object (see docs/API.md)"
