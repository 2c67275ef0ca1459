package serve

import (
	"encoding/json"
)

// This file is the glue between the cell cache and the durable tier
// (internal/store). The store speaks bytes; this file fixes the byte
// formats. A cell's durable identity is CellHash64 — a pure function of
// point and effort caps, stable across processes and restarts, unlike the
// per-process maphash the RAM cache keys on — plus canonical JSON key
// bytes as collision defense. The value bytes are the cellValue's JSON,
// which round-trips bit-exactly (ints exactly, float64 via shortest-form
// encoding), so a disk-warm sweep body is byte-identical to a cold one.

// storeKey is the canonical durable identity of one cell, serialized as
// the store entry's key bytes. It reuses WirePoint — the same stable,
// string-enum encoding the cluster wire protocol uses — so the key never
// changes meaning when internal enums renumber.
type storeKey struct {
	Point     WirePoint `json:"point"`
	RepeatCap int       `json:"repeat_cap"`
	TileCap   int       `json:"tile_cap"`
	// Epoch-engine identity, omitted for monolithic-exact cells so every
	// pre-redesign store entry keeps its exact key bytes (and stays
	// readable after the upgrade).
	Sampled  bool    `json:"sampled,omitempty"`
	TargetCI float64 `json:"target_ci,omitempty"`
	Epoched  bool    `json:"epoched,omitempty"`
}

func storeKeyBytes(k cellKey) []byte {
	b, err := json.Marshal(storeKey{
		Point: ToWire(k.point), RepeatCap: k.effort.RepeatCap, TileCap: k.effort.TileCap,
		Sampled: k.effort.Sampled(), TargetCI: k.effort.TargetCI, Epoched: k.effort.Epoched(),
	})
	if err != nil {
		// Marshal of plain structs with string/int/bool fields cannot fail.
		panic("serve: encoding store key: " + err.Error())
	}
	return b
}

// diskGet consults the durable tier for a cell. It runs inside the cache
// compute path (after a RAM miss, before simulating), so its cost — one
// small file read — replaces a full simulation, never adds to a hit.
// Every false return means "fall through and simulate": not present,
// evicted, quarantined as corrupt, or a stale value schema.
func (s *Server) diskGet(k cellKey) (cellValue, bool) {
	if s.store == nil {
		return cellValue{}, false
	}
	raw, ok := s.store.Get(CellHash64(k.point, k.effort), storeKeyBytes(k))
	if !ok {
		return cellValue{}, false
	}
	var v cellValue
	if err := json.Unmarshal(raw, &v); err != nil {
		// Checksum-valid bytes that no longer decode as a cellValue (an
		// older schema, say) are treated as a miss: re-simulate and let the
		// write-behind Put overwrite the stale entry.
		return cellValue{}, false
	}
	return v, true
}

// diskPut persists a freshly simulated cell. The store's write-behind
// queue makes this a non-blocking enqueue — file I/O never sits on the
// request critical path — and a full queue drops the write (the cell
// simply stays RAM-only until simulated again).
func (s *Server) diskPut(k cellKey, v cellValue) {
	if s.store == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		panic("serve: encoding store value: " + err.Error())
	}
	s.store.Put(CellHash64(k.point, k.effort), storeKeyBytes(k), raw)
}
