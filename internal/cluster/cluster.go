// Package cluster is the scale-out layer of the sweep engine: a
// coordinator that accepts the same POST /v1/sweep API as a single
// neuserve process, partitions the expanded design-space grid into
// shards, routes each shard to a worker over HTTP, and merges the worker
// streams back into the exact byte sequence the single process would have
// produced.
//
// Routing is consistent hashing on the content-addressed cell key
// (serve.CellHash64): the same cell always lands on the same worker, so
// repeated and overlapping sweeps keep hitting the worker whose LRU
// result cache already holds their cells — the cluster-wide analogue of
// the in-process content-addressed cache. Workers are plain neuserve
// processes; the only wire surface between coordinator and worker is
// POST /v1/cells (see internal/serve).
//
// Determinism guarantee: the merged NDJSON body for a sweep is
// byte-identical to single-process neuserve for the same request — rows
// in grid order, the same summary line, regardless of worker count,
// shard boundaries, cache states, or mid-sweep re-routing. Failure
// handling preserves work: when a worker dies mid-shard, only its
// missing cells are re-routed (bounded by MaxRetries); cells already
// streamed back are kept. With no healthy workers a sweep is refused
// with 503 rather than hanging.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"neummu/internal/exp"
	"neummu/internal/serve"
	"neummu/internal/trace"
)

// fleetError is a cluster error whose class — one of serve's sentinel
// errors, reached through errors.Is — tells the shared front end which
// envelope answers it, while its message stays the cluster's own.
type fleetError struct {
	msg   string
	class error
}

func (e *fleetError) Error() string { return e.msg }
func (e *fleetError) Unwrap() error { return e.class }

// ErrNoWorkers is returned (as a 503) when no healthy worker remains to
// route a shard to.
var ErrNoWorkers error = &fleetError{"cluster: no healthy workers", serve.ErrUnavailable}

// ErrWorkerOverloaded is returned (as a 429) when a worker answered a
// shard with its admission-control pushback. Unlike a transport failure
// it does NOT mark the worker down or re-route: the worker is alive and
// deliberately shedding load, and piling its shard onto the rest of the
// fleet would cascade one hot spot into a fleet-wide brownout. The 429
// (with Retry-After) bubbles up to the client, preserving the single
// process's backpressure contract through the coordinator.
var ErrWorkerOverloaded error = &fleetError{"cluster: worker overloaded", serve.ErrOverloaded}

// Config tunes a Coordinator.
type Config struct {
	// Workers lists worker base URLs (e.g. http://10.0.0.2:8077).
	Workers []string
	// Replicas is the virtual-node count per worker on the consistent-hash
	// ring (0 = 64). More replicas smooth the cell distribution at the
	// cost of a larger ring.
	Replicas int
	// MaxRetries bounds how many times one cell may be re-routed after
	// worker failures before the sweep reports it failed (0 = 2).
	MaxRetries int
	// ShardTimeout bounds a worker's stream *inactivity* during one shard
	// dispatch, not the shard's total duration: a worker that goes this
	// long without producing its next result line (including never
	// answering at all) is treated as failed and its missing cells are
	// re-routed (0 = 5m). A worker streaming steadily is never cut off,
	// however large its shard — so legitimate full-effort sweeps that
	// succeed on a single process also succeed through the coordinator.
	ShardTimeout time.Duration
	// HealthInterval is the /healthz probe period (0 = 2s). It is also
	// the probe timeout.
	HealthInterval time.Duration
	// MaxCellsPerRequest bounds one sweep request's grid (0 = 4096).
	MaxCellsPerRequest int
	// JournalDir enables sweep checkpointing when non-empty: every sweep's
	// completed cells are journaled there (one file per request hash), a
	// restarted coordinator — or a retry of the same request — resumes from
	// the last durable cell, and a journal-complete sweep is answerable
	// with zero healthy workers. See journal.go for format and policy.
	JournalDir string
	// JournalKeep bounds how many sweep journals the directory retains,
	// oldest evicted first (0 = 64).
	JournalKeep int
	// Client optionally overrides the HTTP client used for worker traffic
	// and health probes (tests inject httptest clients; nil = a client
	// suited to long streaming responses).
	Client *http.Client
	// Trace tunes the coordinator's request tracer (see trace.Config). The
	// zero value selects the defaults. The coordinator propagates each
	// request's trace ID to workers on every dispatch, so one fleet-wide
	// sweep is one trace across every process that touched it.
	Trace trace.Config
	// Logger receives structured request logs, re-route warnings, and
	// slow-cell records (nil = discard).
	Logger *slog.Logger
}

func (c Config) normalized() Config {
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 2
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxCellsPerRequest <= 0 {
		c.MaxCellsPerRequest = 4096
	}
	if c.JournalKeep <= 0 {
		c.JournalKeep = 64
	}
	if c.Client == nil {
		c.Client = &http.Client{} // no global timeout: shard ctx bounds each call
	}
	return c
}

// Coordinator fans sweeps out over a worker fleet. Create with New,
// mount as an http.Handler, and Close when done.
//
// Endpoints: the shared serve front end (GET /healthz, GET /debug/traces,
// POST /v1/sweep, POST /v1/sim, and POST /v1/cells — so one coordinator
// can serve another coordinator, or the exp remote backend, exactly like
// a worker would) over the coordinator's remote cell source, plus its
// own GET /metrics.
type Coordinator struct {
	cfg  Config
	ring *ring
	pool *pool
	fe   *serve.Frontend

	start        time.Time
	reroutes     atomic.Int64
	noWorkers    atomic.Int64
	journalCells atomic.Int64 // cells answered from a sweep journal
	resumes      atomic.Int64 // sweeps that found journaled progress
	tracer       *trace.Tracer
	logger       *slog.Logger
}

// New returns a coordinator for the given worker fleet. The health
// checker starts immediately; workers are assumed healthy until a probe
// or a dispatch says otherwise.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.normalized()
	// Canonicalize worker URLs so the ring, the pool, and user-supplied
	// spellings (trailing slash or not) agree on one name per worker.
	urls := make([]string, 0, len(cfg.Workers))
	seen := make(map[string]bool)
	for _, u := range cfg.Workers {
		u = strings.TrimSuffix(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			continue
		}
		seen[u] = true
		urls = append(urls, u)
	}
	cfg.Workers = urls
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	traceCfg := cfg.Trace
	if traceCfg.Logger == nil {
		traceCfg.Logger = logger
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   newRing(cfg.Workers, cfg.Replicas),
		pool:   newPool(cfg.Workers, cfg.Client, cfg.HealthInterval),
		start:  time.Now(),
		tracer: trace.NewTracer(traceCfg),
		logger: logger,
	}
	// Expansion harnesses run on one worker: the coordinator expands grids
	// and normalizes efforts but never simulates.
	c.fe = serve.NewFrontend(remote{c}, serve.NewHarnessCache(1), cfg.MaxCellsPerRequest, c.tracer, logger)
	c.fe.HandleFunc("GET /metrics", c.handleMetrics)
	return c, nil
}

// Tracer exposes the coordinator's span tracer (the /debug/traces state)
// for embedding processes and tests.
func (c *Coordinator) Tracer() *trace.Tracer { return c.tracer }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.fe.ServeHTTP(w, r) }

// Close stops the health checker. In-flight dispatches are bounded by
// their own contexts and need no draining here.
func (c *Coordinator) Close() { c.pool.close() }

// slot is one cell's pending result. Exactly one dispatch owns a slot at
// any time (re-routing hands unresolved slots to a new dispatch only
// after the failed one has stopped touching them), so done is closed
// exactly once and the fields are published by that close.
type slot struct {
	done chan struct{}
	line serve.CellLine // the result (Err unset)
	err  error
	// attempts counts dispatches that have carried this cell; bounded by
	// MaxRetries. Only the owning dispatch chain touches it.
	attempts int
	// firstDispatch anchors retry-stage attribution: a re-routed cell's
	// span books the time from here to its final dispatch's start as
	// StageRetry. Set once in runCells; read by the owning dispatch chain.
	firstDispatch time.Time
}

func (s *slot) fail(err error) {
	s.err = err
	close(s.done)
}

// remote is the Coordinator's CellSource: the hash ring, worker dispatch,
// re-routing and the sweep journal.
type remote struct{ *Coordinator }

// Resolve shards the job's cells over the fleet. A /v1/sweep job resumes
// from (and appends to) its sweep journal when checkpointing is on;
// journaling is best-effort — an unwritable journal directory degrades
// to a journal-less sweep, never to a failed one.
func (c remote) Resolve(ctx context.Context, job serve.Job) (serve.Pending, error) {
	var jr *journal
	var journaled map[int]serve.CellLine
	if job.Sweep != nil && c.cfg.JournalDir != "" {
		if j, done, err := openJournal(c.cfg.JournalDir, c.cfg.JournalKeep, *job.Sweep, len(job.Points)); err == nil {
			jr, journaled = j, done
			if len(done) > 0 {
				c.resumes.Add(1)
			}
		}
	}
	slots, err := c.runCells(ctx, job.TraceID, job.Harness, job.Points, journaled, jr)
	if err != nil {
		jr.close()
		return nil, err
	}
	return &shards{slots: slots, jr: jr}, nil
}

// shards is one request's cells on the remote source.
type shards struct {
	slots []*slot
	jr    *journal
}

// Hits is unknown at admission: workers report hits per cell.
func (p *shards) Hits() int { return -1 }

func (p *shards) Wait(ctx context.Context, i int) (serve.CellLine, error) {
	sl := p.slots[i]
	select {
	case <-sl.done:
		return sl.line, sl.err
	case <-ctx.Done():
		return serve.CellLine{}, ctx.Err()
	}
}

func (p *shards) Close() { p.jr.close() }

// runCells shards the points across healthy workers by consistent hash
// and dispatches each shard; slots resolve as worker lines stream back.
// Cells present in journaled (a previous run's checkpoint, keyed by grid
// index) resolve immediately and are never dispatched — a sweep whose
// journal is complete succeeds with zero healthy workers. jr, when
// non-nil, receives every newly completed cell. traceID propagates to
// every worker dispatch over the X-Trace-Id header.
func (c *Coordinator) runCells(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	journaled map[int]serve.CellLine, jr *journal) ([]*slot, error) {
	slots := make([]*slot, len(points))
	remaining := make([]int, 0, len(points))
	now := time.Now()
	for i := range slots {
		slots[i] = &slot{done: make(chan struct{}), attempts: 1, firstDispatch: now}
		if cl, ok := journaled[i]; ok {
			sl := slots[i]
			cl.Hit = true
			sl.line = cl
			c.tracer.Record(trace.Span{
				TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
				Start: now, Hit: true,
			})
			close(sl.done)
			continue
		}
		remaining = append(remaining, i)
	}
	c.journalCells.Add(int64(len(points) - len(remaining)))
	if len(remaining) == 0 {
		return slots, nil
	}
	if c.pool.healthyCount() == 0 {
		c.noWorkers.Add(1)
		return nil, ErrNoWorkers
	}
	groups, err := c.plan(h, points, remaining)
	if err != nil {
		c.noWorkers.Add(1)
		return nil, err
	}
	for url, idxs := range groups {
		go c.dispatch(ctx, traceID, h, points, slots, url, idxs, jr)
	}
	return slots, nil
}

// plan groups point indices by ring owner among healthy workers. indices
// nil means all points.
func (c *Coordinator) plan(h *exp.Harness, points []exp.Point, indices []int) (map[string][]int, error) {
	eff := h.Options().Effort
	groups := make(map[string][]int)
	assign := func(i int) error {
		owner := c.ring.owner(serve.CellHash64(points[i], eff), c.pool.unhealthy)
		if owner == "" {
			return ErrNoWorkers
		}
		groups[owner] = append(groups[owner], i)
		return nil
	}
	if indices == nil {
		for i := range points {
			if err := assign(i); err != nil {
				return nil, err
			}
		}
		return groups, nil
	}
	for _, i := range indices {
		if err := assign(i); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// dispatch sends one shard (the points at idxs) to a worker and resolves
// each slot as its line streams back. On transport failure — connection
// error, bad status, timeout, or a truncated stream — the cells not yet
// resolved are re-routed to the remaining healthy workers; cells the
// worker already answered keep their results. The trace ID rides the
// X-Trace-Id header, so the worker's own spans land under the same trace.
// Workers receive the harness's normalized effort.
func (c *Coordinator) dispatch(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	slots []*slot, url string, idxs []int, jr *journal) {
	dispatchStart := time.Now()
	w := c.pool.byURL[url]
	w.shards.Add(1)
	w.cells.Add(int64(len(idxs)))

	eff := h.Options().Effort
	req := serve.CellsRequest{Effort: &eff, Points: make([]serve.WirePoint, len(idxs))}
	for k, i := range idxs {
		req.Points[k] = serve.ToWire(points[i])
	}
	body, err := json.Marshal(req)
	if err != nil {
		for _, i := range idxs {
			slots[i].fail(err)
		}
		return
	}

	// cellSpan books one resolved cell on the coordinator: the time since
	// the previous line of this stream (or the dispatch start) is this
	// cell's share of the remote work — network plus the worker's own
	// stages — and a re-routed cell additionally books the time its failed
	// earlier dispatches burned as StageRetry.
	lastLine := dispatchStart
	cellSpan := func(i int, sl *slot, cellErr string) {
		now := time.Now()
		var st trace.Stages
		st[trace.StageCompute] = int64(now.Sub(lastLine))
		lastLine = now
		if sl.attempts > 1 {
			st[trace.StageRetry] = int64(dispatchStart.Sub(sl.firstDispatch))
		}
		c.tracer.Record(trace.Span{
			TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
			Start: sl.firstDispatch, TotalNS: st.Sum(), Stages: st,
			Hit: sl.line.Hit, Worker: url, Attempts: sl.attempts, Err: cellErr,
		})
	}

	resolved := make([]bool, len(idxs))
	// ShardTimeout is an inactivity bound, not a total-duration bound: the
	// timer cancels the shard only when the worker goes a full period
	// without producing its next line, and every decoded line re-arms it.
	// A worker streaming a large full-effort shard steadily is never cut
	// off; a hung or dead one is.
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	idle := time.AfterFunc(c.cfg.ShardTimeout, cancel)
	defer idle.Stop()
	failure := func(cause error) {
		var missing []int
		for k, i := range idxs {
			if !resolved[k] {
				missing = append(missing, i)
			}
		}
		c.reroute(ctx, traceID, h, points, slots, w, missing, cause, jr)
	}

	httpReq, err := http.NewRequestWithContext(shardCtx, "POST", url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		failure(err)
		return
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set(trace.Header, traceID)
	resp, err := c.pool.client.Do(httpReq)
	if err != nil {
		failure(err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		// Admission-control pushback, not death: fail the shard's cells
		// with the overload error (mapped to 429 upstream) and leave the
		// worker healthy and un-rerouted. See ErrWorkerOverloaded.
		for _, i := range idxs {
			slots[i].fail(fmt.Errorf("%s: %w", points[i].Label(), ErrWorkerOverloaded))
		}
		return
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		failure(fmt.Errorf("worker answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg)))
		return
	}

	dec := json.NewDecoder(resp.Body)
	n := 0
	for n < len(idxs) {
		var line serve.CellLine
		if err := dec.Decode(&line); err != nil {
			failure(fmt.Errorf("worker stream truncated after %d/%d cells: %w", n, len(idxs), err))
			return
		}
		idle.Reset(c.cfg.ShardTimeout)
		if line.I < 0 || line.I >= len(idxs) || resolved[line.I] {
			failure(fmt.Errorf("worker answered bogus cell index %d", line.I))
			return
		}
		resolved[line.I] = true
		n++
		// The span and the checkpoint are booked before the slot resolves,
		// so a client that has read the cell's row finds both. Both are
		// dispatch-goroutine work, never on the client-stream path.
		i := idxs[line.I]
		sl := slots[i]
		if line.Err != "" {
			w.cellErrs.Add(1)
			cellSpan(i, sl, line.Err)
			sl.fail(errors.New(line.Err))
			continue
		}
		w.completed.Add(1)
		sl.line = line
		cellSpan(i, sl, "")
		if jr != nil {
			// The journal is keyed by global grid index and omits hits.
			jr.appendCell(serve.CellLine{
				I: i, Cycles: line.Cycles, Translations: line.Translations,
				Perf: line.Perf, Counters: line.Counters, Sampled: line.Sampled,
			})
		}
		close(sl.done)
	}
}

// reroute handles a failed dispatch: mark the worker down, re-plan the
// missing cells on the remaining healthy fleet, and fail any cell whose
// retry budget is spent. A cancelled client context fails the cells
// without blaming the worker — a hung-up client is not a fleet problem.
// Every re-planned cell is booked twice in /metrics: as cells_rerouted on
// the failed worker it left and as cells_adopted on the worker that took
// it over, so a fleet dashboard can attribute re-route load to both sides
// of the move.
func (c *Coordinator) reroute(ctx context.Context, traceID string, h *exp.Harness, points []exp.Point,
	slots []*slot, w *workerState, missing []int, cause error, jr *journal) {
	if len(missing) == 0 {
		return
	}
	if ctx.Err() != nil {
		for _, i := range missing {
			slots[i].fail(ctx.Err())
		}
		return
	}
	w.markDown()
	w.rerouted.Add(int64(len(missing)))
	c.reroutes.Add(int64(len(missing)))
	c.logger.Warn("worker failed, re-routing",
		"trace_id", traceID, "worker", w.url,
		"missing_cells", len(missing), "cause", cause.Error())

	var retry []int
	for _, i := range missing {
		if slots[i].attempts > c.cfg.MaxRetries {
			err := fmt.Errorf("%s: worker %s failed (%v) and retry budget is spent",
				points[i].Label(), w.url, cause)
			c.tracer.Record(trace.Span{
				TraceID: traceID, Kind: "cell", Name: points[i].Label(), Index: i,
				Start: slots[i].firstDispatch, Worker: w.url,
				Attempts: slots[i].attempts, Err: err.Error(),
			})
			slots[i].fail(err)
			continue
		}
		slots[i].attempts++
		retry = append(retry, i)
	}
	if len(retry) == 0 {
		return
	}
	groups, err := c.plan(h, points, retry)
	if err != nil {
		for _, i := range retry {
			slots[i].fail(fmt.Errorf("%s: %w after worker %s failed (%v)",
				points[i].Label(), ErrNoWorkers, w.url, cause))
		}
		return
	}
	for url, idxs := range groups {
		c.pool.byURL[url].adopted.Add(int64(len(idxs)))
		go c.dispatch(ctx, traceID, h, points, slots, url, idxs, jr)
	}
}

// Metrics is the coordinator's /metrics response: fleet health, routing
// counters, and per-worker detail.
type Metrics struct {
	UptimeSec      float64 `json:"uptime_sec"`
	Requests       int64   `json:"requests"`
	Sweeps         int64   `json:"sweeps"`
	CellsServed    int64   `json:"cells_served"`
	CellsRerouted  int64   `json:"cells_rerouted"`
	NoWorkerErrors int64   `json:"no_worker_errors"`
	// JournalEnabled reports sweep checkpointing is on; CellsFromJournal
	// counts cells answered from a previous run's checkpoint without any
	// dispatch; SweepsResumed counts sweeps that found journaled progress.
	JournalEnabled   bool  `json:"journal_enabled"`
	CellsFromJournal int64 `json:"cells_from_journal"`
	SweepsResumed    int64 `json:"sweeps_resumed"`

	WorkersTotal   int             `json:"workers_total"`
	WorkersHealthy int             `json:"workers_healthy"`
	Workers        []WorkerMetrics `json:"workers"`

	SweepLatencyMS serve.LatencyJSON `json:"sweep_latency_ms"`
}

// Metrics snapshots the coordinator's operational state.
func (c *Coordinator) Metrics() Metrics {
	fe := c.fe.Stats()
	return Metrics{
		UptimeSec:        time.Since(c.start).Seconds(),
		Requests:         fe.Requests,
		Sweeps:           fe.Sweeps,
		CellsServed:      fe.CellsServed,
		CellsRerouted:    c.reroutes.Load(),
		NoWorkerErrors:   c.noWorkers.Load(),
		JournalEnabled:   c.cfg.JournalDir != "",
		CellsFromJournal: c.journalCells.Load(),
		SweepsResumed:    c.resumes.Load(),
		WorkersTotal:     len(c.pool.workers),
		WorkersHealthy:   c.pool.healthyCount(),
		Workers:          c.pool.metrics(),
		SweepLatencyMS:   serve.ToLatencyJSON(fe.SweepLatency),
	}
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		c.handleMetricsProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Metrics())
}
