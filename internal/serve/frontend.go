package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/stats"
	"neummu/internal/trace"
)

// This file is the one HTTP front end both serving tiers mount. It owns
// everything the tiers share — request decode and validation, effort
// folding, grid expansion, the error envelope, the deprecation header,
// NDJSON streaming, request spans, logs and telemetry — and asks a
// CellSource only to resolve design points. A Server resolves them
// locally (scheduler, LRU, durable store, simulator); a cluster
// coordinator resolves them remotely (hash ring, worker dispatch,
// re-routing, sweep journal).

// CellSource is where a front end's cells come from.
type CellSource interface {
	// Resolve admits one request's cells and returns their pending
	// results in point order. An error means nothing was admitted; the
	// front end answers it with the envelope its class maps to (see
	// Frontend.reject).
	Resolve(ctx context.Context, job Job) (Pending, error)
}

// Job is one request's cells as the front end hands them to a source.
type Job struct {
	TraceID string
	// Harness is the memoized harness of the request's normalized effort;
	// h.Options().Effort is the effort every cell runs at.
	Harness *exp.Harness
	Points  []exp.Point
	// Sweep is the decoded /v1/sweep body (nil for /v1/sim and
	// /v1/cells): the identity a source may checkpoint progress under.
	Sweep *SweepRequest
}

// Pending is one admitted request's cells.
type Pending interface {
	// Hits is how many cells were answered from cache at admission, or
	// -1 when the source learns hits only as each cell resolves.
	Hits() int
	// Wait blocks until cell i has resolved, or ctx ends, and returns
	// its result (Err unset; the front end sets I). The cell's span is
	// recorded before Wait returns, so it exists before any byte of the
	// cell is written.
	Wait(ctx context.Context, i int) (CellLine, error)
	// Close releases the request's resources once its response is done.
	Close()
}

// ErrUnavailable classifies source errors meaning no backend can take the
// work right now; the front end answers them 503 with Retry-After.
var ErrUnavailable = errors.New("serve: no backend available")

// Frontend is the shared HTTP surface: GET /healthz, GET /debug/traces,
// POST /v1/sweep, /v1/sim and /v1/cells, plus whatever tier-specific
// endpoints the owner adds with HandleFunc.
type Frontend struct {
	source    CellSource
	harnesses *HarnessCache
	maxCells  int
	tracer    *trace.Tracer
	logger    *slog.Logger
	mux       *http.ServeMux

	requests     atomic.Int64 // HTTP requests accepted (any endpoint)
	overloads    atomic.Int64 // requests answered 429
	sweeps       atomic.Int64 // /v1/sweep requests streamed to completion
	cellsServed  atomic.Int64 // cells streamed to clients
	sweepLatency *stats.Latency
}

// NewFrontend returns a front end over source. Requests are expanded on
// harnesses and bounded to maxCells cells; spans go to tracer, request
// logs to logger.
func NewFrontend(source CellSource, harnesses *HarnessCache, maxCells int, tracer *trace.Tracer, logger *slog.Logger) *Frontend {
	f := &Frontend{
		source: source, harnesses: harnesses, maxCells: maxCells,
		tracer: tracer, logger: logger, mux: http.NewServeMux(),
		sweepLatency: stats.NewLatency(0),
	}
	f.mux.HandleFunc("GET /healthz", handleHealthz)
	f.mux.HandleFunc("GET /debug/traces", tracer.HandleList)
	f.mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		tracer.HandleByID(w, r, r.PathValue("id"))
	})
	f.mux.HandleFunc("POST /v1/sweep", f.handleSweep)
	f.mux.HandleFunc("POST /v1/sim", f.handleSim)
	f.mux.HandleFunc("POST /v1/cells", f.handleCells)
	return f
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// HandleFunc mounts a tier-specific endpoint next to the shared ones.
func (f *Frontend) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.requests.Add(1)
	f.mux.ServeHTTP(w, r)
}

// FrontendStats is the front end's share of a tier's /metrics.
type FrontendStats struct {
	Requests, Overloads, Sweeps, CellsServed int64
	// SweepLatency is the windowed latency of successful sweep, sim and
	// cells requests, in milliseconds.
	SweepLatency stats.LatencySummary
}

// Stats snapshots the front end's counters.
func (f *Frontend) Stats() FrontendStats {
	return FrontendStats{
		Requests: f.requests.Load(), Overloads: f.overloads.Load(),
		Sweeps: f.sweeps.Load(), CellsServed: f.cellsServed.Load(),
		SweepLatency: f.sweepLatency.Summary(),
	}
}

// reject answers a source error with the envelope its class maps to:
// overload (a full scheduler queue, a worker shedding load) is 429 and
// unavailability (no healthy worker) 503, both with Retry-After; anything
// else, a failed simulation included, is 500.
func (f *Frontend) reject(w http.ResponseWriter, traceID string, err error) {
	switch {
	case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrClosed):
		f.overloads.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, ErrCodeOverloaded, err.Error(), traceID)
	case errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, ErrCodeUnavailable, err.Error(), traceID)
	default:
		WriteError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error(), traceID)
	}
}

// harness folds a request's effort fields into the harness that serves
// it and reports whether the response owes the deprecation header (the
// request chose its effort only through the legacy flat fields).
func (f *Frontend) harness(we *WireEffort, quick bool, repeatCap, tileCap int) (*exp.Harness, bool, error) {
	e, err := requestEffort(we, quick, repeatCap, tileCap)
	if err != nil {
		return nil, false, err
	}
	deprecated := we == nil && (quick || repeatCap != 0 || tileCap != 0)
	return f.harnesses.Get(e), deprecated, nil
}

// call is one simulation request moving through the front end.
type call struct {
	f          *Frontend
	w          http.ResponseWriter
	r          *http.Request
	start      time.Time
	traceID    string
	sweep      bool // a /v1/sweep request: completion books a sweep
	deprecated bool
	cells      int
	hits       int // -1 until a source reports it, and when it cannot
	mergeNS    int64
}

func (f *Frontend) begin(w http.ResponseWriter, r *http.Request) *call {
	return &call{f: f, w: w, r: r, start: time.Now(), traceID: trace.FromRequest(r), hits: -1}
}

// badRequest answers a 400 envelope. Nothing is booked: the request
// never reached a source.
func (c *call) badRequest(err error) {
	WriteError(c.w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), c.traceID)
}

// resolve hands the request's cells to the source. On failure it
// answers the error envelope itself and returns nil.
func (c *call) resolve(job Job) Pending {
	job.TraceID = c.traceID
	c.cells = len(job.Points)
	p, err := c.f.source.Resolve(c.r.Context(), job)
	if err != nil {
		c.fail(err)
		return nil
	}
	c.hits = p.Hits()
	return p
}

// fail books a failed request, then answers its error envelope.
func (c *call) fail(err error) {
	c.finishRequest(err)
	c.f.reject(c.w, c.traceID, err)
}

// finishRequest books the request's telemetry: on success cells_served
// and the sweep latency, always the request span (merge = response
// encoding time) and the structured request log line. Every caller runs
// it before the response's terminal write, so a client that has read the
// last byte finds the telemetry already there.
func (c *call) finishRequest(reqErr error) {
	total := int64(time.Since(c.start))
	if reqErr == nil {
		c.f.cellsServed.Add(int64(c.cells))
		c.f.sweepLatency.Record(float64(total) / float64(time.Millisecond))
		if c.sweep {
			c.f.sweeps.Add(1)
		}
	}
	var st trace.Stages
	st[trace.StageMerge] = c.mergeNS
	sp := trace.Span{
		TraceID: c.traceID, Kind: "request",
		Name: c.r.Method + " " + c.r.URL.Path, Index: -1,
		Start: c.start, TotalNS: total, Stages: st, Cells: c.cells,
	}
	attrs := []any{"trace_id", c.traceID, "method", c.r.Method, "path", c.r.URL.Path, "cells", c.cells}
	if c.hits >= 0 {
		attrs = append(attrs, "hits", c.hits)
	}
	attrs = append(attrs, "ms", float64(total)/float64(time.Millisecond))
	if reqErr != nil {
		sp.Err = reqErr.Error()
		c.f.tracer.Record(sp)
		c.f.logger.Error("request failed", append(attrs, "error", reqErr.Error())...)
		return
	}
	c.f.tracer.Record(sp)
	c.f.logger.Info("request", attrs...)
}

// commit sets the headers of a successful response; they go out with its
// first write.
func (c *call) commit(contentType string) {
	h := c.w.Header()
	h.Set(trace.Header, c.traceID)
	if c.deprecated {
		h.Set(DeprecationHeader, deprecationNote)
	}
	h.Set("Content-Type", contentType)
}

// commitStream commits an NDJSON response: the cell count, and the cache
// summary when the source knew it at admission.
func (c *call) commitStream() {
	c.commit("application/x-ndjson")
	c.w.Header().Set("X-Neuserve-Cells", strconv.Itoa(c.cells))
	if c.hits >= 0 {
		c.w.Header().Set("X-Neuserve-Cache", fmt.Sprintf("hits=%d misses=%d", c.hits, c.cells-c.hits))
	}
}

// emit writes one JSON value and flushes it. The terminal write of a
// response is encoded first, then the request is finished with endErr,
// then the bytes go out — the ordering that keeps telemetry ahead of the
// client.
func (c *call) emit(v any, indent, last bool, endErr error) {
	t0 := time.Now()
	var b []byte // the wire types hold no values json.Marshal can reject
	if indent {
		b, _ = json.MarshalIndent(v, "", "  ")
	} else {
		b, _ = json.Marshal(v)
	}
	b = append(b, '\n')
	if last {
		c.mergeNS += int64(time.Since(t0))
		c.finishRequest(endErr)
		c.w.Write(b)
		return
	}
	c.w.Write(b)
	if fl, ok := c.w.(http.Flusher); ok {
		fl.Flush()
	}
	c.mergeNS += int64(time.Since(t0))
}

// decodeStrict decodes a request body, rejecting unknown fields.
func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// expandRequest decodes and validates a /v1/sweep or /v1/sim body into
// its harness and deterministic point grid, answering 400 itself on
// failure (ok false).
func (c *call) expandRequest(req *SweepRequest) (h *exp.Harness, points []exp.Point, ok bool) {
	err := decodeStrict(c.r, req)
	if err == nil {
		h, c.deprecated, err = c.f.harness(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	}
	if err == nil {
		points, err = ExpandSweep(h, *req, c.f.maxCells)
	}
	if err != nil {
		c.badRequest(err)
		return nil, nil, false
	}
	return h, points, true
}

// rowOf renders the public NDJSON row of one resolved cell — the single
// rendering path of both tiers, which is what makes a merged cluster
// sweep byte-identical to a single-process one.
func rowOf(p exp.Point, l CellLine) CellRow {
	return CellRow{
		Model: p.Model, Batch: p.Batch,
		MMU: p.Kind.String(), PageSize: p.PageSize.String(),
		Cycles: l.Cycles, Translations: l.Translations, NormalizedPerf: l.Perf,
		Counters: l.Counters, Sampled: l.Sampled,
	}
}

// handleSweep streams one NDJSON row per cell, in grid order, then a
// summary line. Rows are written as their cells resolve in order, so a
// client consumes early cells while later ones still resolve; the bytes
// are identical whether every cell was a cache hit, a miss, or a mix, and
// on either tier. A failure before the first row is answered with the
// error envelope; after it, the committed stream ends with a terminal
// {"error": ...} line in place of the summary.
func (f *Frontend) handleSweep(w http.ResponseWriter, r *http.Request) {
	c := f.begin(w, r)
	c.sweep = true
	var req SweepRequest
	h, points, ok := c.expandRequest(&req)
	if !ok {
		return
	}
	p := c.resolve(Job{Harness: h, Points: points, Sweep: &req})
	if p == nil {
		return
	}
	defer p.Close()
	sum := 0.0
	var agg counters.Bundle
	for i, pt := range points {
		line, err := p.Wait(r.Context(), i)
		if err != nil {
			if i == 0 {
				c.fail(err)
				return
			}
			c.emit(map[string]string{"error": err.Error()}, false, true, err)
			return
		}
		if i == 0 {
			c.commitStream()
		}
		sum += line.Perf
		agg = agg.Add(line.Counters)
		c.emit(rowOf(pt, line), false, false, nil)
	}
	c.emit(SweepSummary{
		Summary: true, Cells: len(points),
		AvgNormalizedPerf: sum / float64(len(points)),
		Counters:          agg,
	}, false, true, nil)
}

// handleSim resolves a single cell and returns one JSON object: the
// one-point restriction of handleSweep. Any failure is answered with the
// error envelope.
func (f *Frontend) handleSim(w http.ResponseWriter, r *http.Request) {
	c := f.begin(w, r)
	var req SweepRequest
	h, points, ok := c.expandRequest(&req)
	if !ok {
		return
	}
	if len(points) != 1 {
		c.badRequest(fmt.Errorf("sim requires exactly one cell, got %d (use /v1/sweep for grids)", len(points)))
		return
	}
	p := c.resolve(Job{Harness: h, Points: points})
	if p == nil {
		return
	}
	defer p.Close()
	line, err := p.Wait(r.Context(), 0)
	if err != nil {
		c.fail(err)
		return
	}
	c.commit("application/json")
	setCacheHeader(w, line.Hit)
	c.emit(rowOf(points[0], line), true, true, nil)
}

// handleCells streams one CellLine per requested point, in input order:
// the explicit-point-list protocol a coordinator fans sweeps out with
// (and that coordinators speak themselves). A cell that fails carries
// its error in its own line and the stream continues — except overload
// on the first cell, which is answered 429 so the caller can retry.
func (f *Frontend) handleCells(w http.ResponseWriter, r *http.Request) {
	c := f.begin(w, r)
	req, points, err := parseCellsRequest(r, f.maxCells)
	var h *exp.Harness
	if err == nil {
		h, c.deprecated, err = f.harness(req.Effort, req.Quick, req.RepeatCap, req.TileCap)
	}
	if err != nil {
		c.badRequest(err)
		return
	}
	p := c.resolve(Job{Harness: h, Points: points})
	if p == nil {
		return
	}
	defer p.Close()
	for i := range points {
		line, err := p.Wait(r.Context(), i)
		if err != nil {
			if i == 0 && errors.Is(err, ErrOverloaded) {
				c.fail(err)
				return
			}
			line = CellLine{Err: err.Error()}
		}
		if i == 0 {
			c.commitStream()
		}
		line.I = i
		c.emit(line, false, i == len(points)-1, nil)
	}
}
