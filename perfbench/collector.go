package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"neummu/internal/trace"
)

// tracing is a traced phase's state: the benchmark's own spans and the
// program's telemetry read from outside. A nil *tracing is an untraced
// phase; every method is a no-op on nil.
type tracing struct {
	rec *spanRec
	col *collector
}

// tracedRing is the span ring each process gets in a traced phase.
// Spans are read right after each request and re-read at most one
// request later, so the ring only has to hold a few requests' spans; the
// default (512) can drop a cold-fleet pass's.
const tracedRing = 1 << 12

func newTracing(e *env) *tracing {
	return &tracing{rec: &spanRec{}, col: &collector{e: e, busy: make(map[string]int64), base: make(map[*fleet]promTotals), prom: make(promTotals)}}
}

func (t *tracing) ring() int {
	if t == nil {
		return 0
	}
	return tracedRing
}

func (t *tracing) recorder() *spanRec {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracing) fleetStarted(f *fleet) {
	if t != nil {
		t.col.fleetStarted(f)
	}
}

func (t *tracing) fleetDone(f *fleet) {
	if t != nil {
		t.col.fleetDone(f)
	}
}

func (t *tracing) afterRequest(f *fleet, id string, cells int) {
	if t != nil {
		t.col.afterRequest(f, id, cells)
	}
}

func (t *tracing) storeOpened(d time.Duration) {
	if t != nil {
		t.col.mu.Lock()
		t.col.storeOpen = append(t.col.storeOpen, d)
		t.col.mu.Unlock()
	}
}

// promTotals are the Prometheus counters the per-layer metrics use,
// summed over the serving processes ("rerouted" is the coordinator's).
type promTotals map[string]float64

// addDelta adds cur minus base into t.
func (t promTotals) addDelta(cur, base promTotals) {
	for k, v := range cur {
		t[k] += v - base[k]
	}
}

// collector gathers the service stage spans (GET /debug/traces/{id}) and
// counters (GET /metrics?format=prometheus) of every process in a fleet.
type collector struct {
	e  *env
	mu sync.Mutex

	missing int // spans not yet visible when the client read the last byte
	dropped int // spans still missing one request later
	pending []pendingTrace

	queue, cache, disk, compute, merge []float64 // stage ms per span
	retryNS                            int64
	busy                               map[string]int64 // serving process → compute-stage ns
	prom                               promTotals
	base                               map[*fleet]promTotals
	storeOpen                          []time.Duration
	errs                               int
}

type pendingTrace struct {
	f     *fleet
	id    string
	cells int
}

func (c *collector) fail(err error) {
	c.mu.Lock()
	c.errs++
	c.mu.Unlock()
	fmt.Fprintf(c.e.log, "perfbench: telemetry: %v\n", err)
}

func (c *collector) fleetStarted(f *fleet) {
	p, err := scrape(f)
	if err != nil {
		c.fail(err)
	}
	c.mu.Lock()
	c.base[f] = p
	c.mu.Unlock()
}

// fleetDone settles every pending trace and books the fleet's counter
// deltas since fleetStarted.
func (c *collector) fleetDone(f *fleet) {
	c.settle()
	p, err := scrape(f)
	if err != nil {
		c.fail(err)
	}
	c.mu.Lock()
	c.prom.addDelta(p, c.base[f])
	delete(c.base, f)
	c.mu.Unlock()
}

// afterRequest reads a finished request's spans at once — the moment the
// client has read the last byte — and counts the ones not yet recorded.
// A complete trace is absorbed now; an incomplete one is re-read after
// the next request, when its late spans have landed.
func (c *collector) afterRequest(f *fleet, id string, cells int) {
	c.settle()
	spans, err := fetchSpans(f, id)
	if err != nil {
		c.fail(err)
		return
	}
	m := missingSpans(f, spans, cells)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.missing += m
	if m == 0 {
		c.absorb(f, spans)
		return
	}
	c.pending = append(c.pending, pendingTrace{f, id, cells})
}

func (c *collector) settle() {
	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, p := range pending {
		spans, err := fetchSpans(p.f, p.id)
		if err != nil {
			c.fail(err)
			continue
		}
		m := missingSpans(p.f, spans, p.cells)
		c.mu.Lock()
		c.dropped += m
		c.absorb(p.f, spans)
		c.mu.Unlock()
	}
}

// absorb folds one trace's spans into the stage samples. spans[0] is the
// entry process; the serving processes are the workers behind a
// coordinator, or the entry itself.
func (c *collector) absorb(f *fleet, spans [][]trace.Span) {
	msOf := func(ns int64) float64 { return float64(ns) / 1e6 }
	procs := f.procs()
	first := 0
	if f.coord != nil {
		first = 1
		for _, s := range spans[0] {
			if s.Kind == "cell" {
				c.retryNS += s.Stages[trace.StageRetry]
			}
		}
	}
	for _, s := range spans[0] {
		if s.Kind == "request" {
			c.merge = append(c.merge, msOf(s.Stages[trace.StageMerge]))
		}
	}
	for i := first; i < len(spans); i++ {
		for _, s := range spans[i] {
			if s.Kind != "cell" {
				continue
			}
			st := s.Stages
			c.cache = append(c.cache, msOf(st[trace.StageCache]))
			if !s.Hit {
				c.queue = append(c.queue, msOf(st[trace.StageQueue]))
			}
			if s.DiskHit || st[trace.StageDisk] > 0 {
				c.disk = append(c.disk, msOf(st[trace.StageDisk]))
			}
			if st[trace.StageCompute] > 0 {
				c.compute = append(c.compute, msOf(st[trace.StageCompute]))
				c.busy[procs[i]] += st[trace.StageCompute]
			}
		}
	}
}

// fetchSpans reads one trace's retained spans from every process, entry
// first.
func fetchSpans(f *fleet, id string) ([][]trace.Span, error) {
	procs := f.procs()
	out := make([][]trace.Span, len(procs))
	for i, u := range procs {
		var buf bytes.Buffer
		if err := f.get(u+"/debug/traces/"+id, &buf); err != nil {
			return nil, err
		}
		var tr trace.Trace
		if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
			return nil, fmt.Errorf("trace %s from %s: %w", id, u, err)
		}
		out[i] = tr.Spans
	}
	return out, nil
}

// missingSpans counts the spans a finished request of n cells should
// have left and did not: on every process that handled it, one span per
// cell it resolved plus one request span.
func missingSpans(f *fleet, spans [][]trace.Span, n int) int {
	count := func(ss []trace.Span) (cells, reqs int) {
		for _, s := range ss {
			if s.Kind == "cell" {
				cells++
			} else if s.Kind == "request" {
				reqs++
			}
		}
		return
	}
	pos := func(x int) int { return max(x, 0) }
	cells, reqs := count(spans[0])
	m := pos(n-cells) + pos(1-reqs)
	if f.coord == nil {
		return m
	}
	dispatched := make(map[string]bool)
	for _, s := range spans[0] {
		if s.Kind == "cell" && s.Worker != "" {
			dispatched[s.Worker] = true
		}
	}
	workerCells := 0
	for i, u := range f.procs()[1:] {
		c, r := count(spans[i+1])
		workerCells += c
		if (c > 0 || dispatched[u]) && r == 0 {
			m++
		}
	}
	return m + pos(n-workerCells)
}

// scrape reads and parses every process's Prometheus exposition.
func scrape(f *fleet) (promTotals, error) {
	p := make(promTotals)
	for i, u := range f.procs() {
		var buf bytes.Buffer
		if err := f.get(u+"/metrics?format=prometheus", &buf); err != nil {
			return p, err
		}
		ex, err := trace.ParseProm(buf.Bytes())
		if err != nil {
			return p, fmt.Errorf("metrics from %s: %w", u, err)
		}
		sum := func(family, key, val string) float64 {
			fam, ok := ex.Family(family)
			if !ok {
				return 0
			}
			t := 0.0
			for _, s := range fam.Samples {
				if key == "" || s.Labels[key] == val {
					t += s.Value
				}
			}
			return t
		}
		if f.coord != nil && i == 0 {
			p["rerouted"] += sum("neucoord_cells_rerouted_total", "", "")
			continue
		}
		p["simulated"] += sum("neuserve_cells_simulated_total", "", "")
		p["overloads"] += sum("neuserve_overloads_total", "", "")
		p["cache_hits"] += sum("neuserve_cache_hits_total", "cache", "cell")
		p["cache_joins"] += sum("neuserve_cache_joins_total", "cache", "cell")
		p["cache_misses"] += sum("neuserve_cache_misses_total", "cache", "cell")
		p["disk_hits"] += sum("neuserve_disk_tier_ops_total", "op", "hits")
		p["disk_misses"] += sum("neuserve_disk_tier_ops_total", "op", "misses")
		p["writes"] += sum("neuserve_disk_tier_ops_total", "op", "writes")
		p["dropped_puts"] += sum("neuserve_disk_tier_ops_total", "op", "dropped_puts")
		p["evictions"] += sum("neuserve_disk_tier_ops_total", "op", "evictions")
	}
	return p, nil
}
