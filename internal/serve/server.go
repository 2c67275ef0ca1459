// Package serve is the simulation-as-a-service layer: an HTTP/JSON front
// end over the experiment harness (internal/exp) and the shared figure
// registry (internal/figures), with a sharded job scheduler and a
// content-addressed result cache between the two. The front end
// (frontend.go) is shared with the cluster coordinator, which mounts it
// over a remote CellSource; a Server mounts it over the local one.
//
// Endpoints:
//
//	GET  /healthz             liveness probe
//	GET  /metrics             queue depth, cache hit rates, cells/sec,
//	                          latency percentiles (JSON)
//	GET  /v1/figures          the figure registry (name + title, JSON)
//	GET  /v1/figures/{name}   one rendered figure; the body is
//	                          byte-identical to `paperfigs -fig name`
//	POST /v1/sweep            a design-space sweep; streams one NDJSON row
//	                          per cell in grid order plus a summary line
//	POST /v1/sim              a single simulation cell (JSON object)
//	POST /v1/cells            an explicit point list, streamed back as one
//	                          NDJSON line per point in input order — the
//	                          cluster wire protocol a coordinator shards
//	                          sweeps over (see internal/cluster)
//
// Determinism guarantee: the response body for a given request payload is
// byte-identical across repetitions, cache hits, cache misses, worker
// counts, and concurrent load — rows stream in the same deterministic
// grid order as the offline CLI, and cache state can only change timing
// (and the X-Neuserve-Cache header), never bytes. Admission control is a
// bounded per-shard queue: when it is full the service answers 429 rather
// than queueing without bound.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/store"
	"neummu/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// Workers is the total simulation-worker budget across all scheduler
	// shards (0 = GOMAXPROCS).
	Workers int
	// Shards is the scheduler shard count (0 = 4, capped at Workers).
	Shards int
	// QueueDepth bounds each shard's pending-job queue (0 = 256). A full
	// queue rejects new requests with 429.
	QueueDepth int
	// CacheBytes bounds the per-cell result cache (0 = 64 MiB).
	CacheBytes int64
	// FigureCacheBytes bounds the rendered-figure cache (0 = 16 MiB).
	FigureCacheBytes int64
	// MaxCellsPerRequest bounds one sweep request's grid (0 = 4096).
	MaxCellsPerRequest int
	// Store is the optional durable tier behind the cell cache (nil =
	// RAM-only). On a cell-cache miss the store is consulted before
	// simulating, and every simulated cell is persisted write-behind, so
	// a process restart starts disk-warm instead of cold. The caller owns
	// the store's lifecycle (open it before New, close it after Close);
	// Server.Close drains pending writes to disk.
	Store *store.Store
	// Trace tunes the request tracer (span ring size, slow-cell threshold
	// and log depth; see trace.Config). The zero value selects the
	// defaults; tracing is always on — it is resolve-time bookkeeping,
	// never hot-path work, and never changes response bytes.
	Trace trace.Config
	// Logger receives structured request logs and slow-cell warnings
	// (nil = discard, which keeps tests and benchmarks quiet).
	Logger *slog.Logger
}

func (c Config) normalized() Config {
	if c.MaxCellsPerRequest <= 0 {
		c.MaxCellsPerRequest = 4096
	}
	if c.FigureCacheBytes <= 0 {
		c.FigureCacheBytes = 16 << 20
	}
	return c
}

// HarnessCache memoizes one exp.Harness per normalized effort. It is the
// one place that decides what selects a harness, shared by the server and
// the cluster coordinator so the two tiers can never diverge on effort
// normalization.
type HarnessCache struct {
	workers int

	mu sync.Mutex
	m  map[exp.Effort]*exp.Harness
}

// NewHarnessCache returns a cache whose harnesses run sweeps on the given
// worker count (1 = a pure expansion/normalization harness that never
// simulates in parallel — what a coordinator wants).
func NewHarnessCache(workers int) *HarnessCache {
	return &HarnessCache{workers: workers, m: make(map[exp.Effort]*exp.Harness)}
}

// Get returns the memoized harness for an effort, building it on first
// use. Efforts that normalize alike share one harness.
func (c *HarnessCache) Get(e exp.Effort) *exp.Harness {
	e = e.Normalized()
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.m[e]
	if !ok {
		h = exp.New(exp.Options{Effort: e, Workers: c.workers})
		c.m[e] = h
	}
	return h
}

// cellKey content-addresses one simulation cell: the full design Point
// plus the normalized effort that shapes its result. Everything that
// influences the result is in the key; nothing else is — quick mode
// (which only shrinks default grids; its caps are explicit once
// normalized) and the intra-cell worker count (results are identical for
// every count ≥ 1) stay out, while the engine goes in: monolithic,
// epoch-engine and sampled cells never alias.
type cellKey struct {
	point  exp.Point
	effort exp.Effort
}

// keyOf builds a cell's cache key from its point and normalized effort.
func keyOf(p exp.Point, e exp.Effort) cellKey {
	if e.Mode == exp.EffortQuick {
		e.Mode = ""
	}
	e.IntraCellWorkers = min(e.IntraCellWorkers, 1)
	return cellKey{point: p, effort: e}
}

// cellValue is the cached result of one cell — the scalars the wire rows
// need plus the flat counter bundle, so a cache entry costs hundreds of
// bytes, not a full npu.Result. The JSON tags are the disk-tier value
// format: a persisted cell decodes bit-exactly (ints are exact, float64
// survives JSON's shortest-form round trip), which is what keeps
// disk-warm sweep bodies byte-identical to cold ones.
type cellValue struct {
	Cycles       int64           `json:"cycles"`
	Translations int64           `json:"translations"`
	Perf         float64         `json:"perf"`
	Counters     counters.Bundle `json:"counters"`
	// Sampled is the sampling audit for cells simulated in sampled mode;
	// nil (and omitted on disk) for exact cells, so pre-redesign store
	// entries decode unchanged and exact entries encode unchanged.
	Sampled *SampleJSON `json:"sampled,omitempty"`
}

// cellEntryCost estimates a cell cache entry's footprint: the value
// (dominated by the counter bundle's ~40 int64 fields), the key, and the
// map/list bookkeeping around them.
const cellEntryCost = 640

// figKey content-addresses one rendered figure body: the figure and its
// normalized effort, whose worker count — like cellKey's — is reduced to
// the epoch-engine bit.
type figKey struct {
	name   string
	effort exp.Effort
}

// Server is the simulation service. Create with New, mount as an
// http.Handler, and Close when done (after the HTTP server has drained).
type Server struct {
	cfg     Config
	sched   *Scheduler
	cells   *Cache[cellKey, cellValue]
	figs    *Cache[figKey, []byte]
	store   *store.Store // nil = RAM-only
	seed    maphash.Seed
	metrics *metrics
	tracer  *trace.Tracer
	fe      *Frontend

	harnesses *HarnessCache
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	traceCfg := cfg.Trace
	if traceCfg.Logger == nil {
		traceCfg.Logger = logger
	}
	s := &Server{
		cfg:   cfg,
		sched: NewScheduler(cfg.Shards, cfg.Workers, cfg.QueueDepth),
		cells: NewCache[cellKey, cellValue](cfg.CacheBytes,
			func(cellValue) int64 { return cellEntryCost }),
		figs: NewCache[figKey, []byte](cfg.FigureCacheBytes,
			func(b []byte) int64 { return int64(len(b)) + 128 }),
		store:     cfg.Store,
		seed:      maphash.MakeSeed(),
		metrics:   newMetrics(),
		tracer:    trace.NewTracer(traceCfg),
		harnesses: NewHarnessCache(cfg.Workers),
	}
	s.fe = NewFrontend(local{s}, s.harnesses, cfg.MaxCellsPerRequest, s.tracer, logger)
	s.fe.HandleFunc("GET /metrics", s.handleMetrics)
	s.fe.HandleFunc("GET /v1/figures", s.handleFigureList)
	s.fe.HandleFunc("GET /v1/figures/{name}", s.handleFigure)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.fe.ServeHTTP(w, r) }

// Close stops the scheduler after letting queued jobs drain, then drains
// the disk tier's write-behind queue so every drained job's result is
// durable (the SIGTERM drain-to-disk path). Call it after the HTTP
// server has shut down, so no request is left waiting on a job the
// scheduler will never run. The store itself stays open — its owner
// closes it.
func (s *Server) Close() {
	s.sched.Close()
	if s.store != nil {
		s.store.Flush()
	}
}

// Metrics snapshots the service's operational state (the /metrics body).
func (s *Server) Metrics() Metrics { return s.snapshot() }

// Tracer exposes the server's span tracer (the /debug/traces state), so
// an embedding process — the cluster worker binary, tests — can inspect
// retained spans without scraping its own HTTP surface.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.handleMetricsProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.snapshot())
}

// figureInfo is one row of the GET /v1/figures listing.
type figureInfo struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

func (s *Server) handleFigureList(w http.ResponseWriter, _ *http.Request) {
	reg := figures.Registry()
	out := make([]figureInfo, len(reg))
	for i, f := range reg {
		out[i] = figureInfo{Name: f.Name, Title: f.Title}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// parseEffort reads the figure endpoint's effort query parameters: the
// effort object's fields (mode, target_ci, intra_cell_workers) and the
// legacy quick/repeat_cap/tile_cap trio, folded by the same requestEffort
// the JSON bodies use, so the two surfaces never diverge on validation or
// defaults.
func parseEffort(r *http.Request) (exp.Effort, error) {
	q := r.URL.Query()
	we := WireEffort{Mode: q.Get("mode")}
	var quick bool
	var repeatCap, tileCap int
	if v := q.Get("quick"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return we, fmt.Errorf("bad quick value %q", v)
		}
		quick = b
	}
	if v := q.Get("target_ci"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return we, fmt.Errorf("bad target_ci value %q", v)
		}
		we.TargetCI = f
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"intra_cell_workers", &we.IntraCellWorkers}, {"repeat_cap", &repeatCap}, {"tile_cap", &tileCap}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return we, fmt.Errorf("bad %s value %q", p.name, v)
			}
			*p.dst = n
		}
	}
	return requestEffort(&we, quick, repeatCap, tileCap)
}

// handleFigure renders one figure. The response body is byte-identical to
// `paperfigs -fig {name}` at the same effort flags, cold cache or warm —
// both render through the shared internal/figures registry, and the cache
// stores the rendered bytes verbatim.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	traceID := trace.FromRequest(r)
	name := r.PathValue("name")
	if _, ok := figures.ByName(name); !ok {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound,
			figures.UnknownNameError(name).Error(), traceID)
		return
	}
	e, err := parseEffort(r)
	if err != nil {
		WriteError(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error(), traceID)
		return
	}
	h := s.harnesses.Get(e)
	key := figKey{name: name, effort: h.Options().Effort}
	key.effort.IntraCellWorkers = min(key.effort.IntraCellWorkers, 1)
	hash := maphash.Comparable(s.seed, key)
	fl, err := s.figs.Resolve(r.Context(), key,
		func(run func()) error { return s.sched.Submit(hash, run) },
		func() ([]byte, error) {
			s.metrics.figsBuilt.Add(1)
			var buf bytes.Buffer
			if err := figures.Render(h, &buf, name); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
	if err != nil {
		s.fe.reject(w, traceID, err)
		return
	}
	setCacheHeader(w, fl.Hit)
	body, err := fl.Wait()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, ErrCodeInternal, err.Error(), traceID)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body)
	s.metrics.figsServed.Add(1)
	s.metrics.figureLatency.Record(float64(time.Since(start)) / float64(time.Millisecond))
}

// SweepRequest is the POST /v1/sweep (and, restricted to scalars,
// POST /v1/sim) payload. Unset axes take the engine defaults documented
// on exp.Axes; unset models/batches take the harness suite at the chosen
// effort. MMU kinds are oracle, iommu, neummu, or custom; page sizes are
// 4KB or 2MB.
type SweepRequest struct {
	Models     []string `json:"models,omitempty"`
	Batches    []int    `json:"batches,omitempty"`
	MMUs       []string `json:"mmus,omitempty"`
	PageSizes  []string `json:"page_sizes,omitempty"`
	PTWs       []int    `json:"ptws,omitempty"`
	PRMBSlots  []int    `json:"prmb_slots,omitempty"`
	TLBEntries []int    `json:"tlb_entries,omitempty"`

	// Legacy flat effort fields: Quick shrinks default grids and caps for
	// smoke use; RepeatCap/TileCap truncate schedules (0 = harness
	// default, matching paperfigs; -1 = simulate everything). Deprecated
	// in favor of Effort, but accepted forever with identical behavior;
	// responses to requests still using them carry an
	// X-Neuserve-Deprecated header.
	Quick     bool `json:"quick,omitempty"`
	RepeatCap int  `json:"repeat_cap,omitempty"`
	TileCap   int  `json:"tile_cap,omitempty"`

	// Effort is the unified effort object. When set, its fields win over
	// the legacy flat ones (see exp.Effort.WithLegacy). A pointer so unset
	// efforts marshal to nothing — pre-redesign payload bytes are
	// unchanged.
	Effort *WireEffort `json:"effort,omitempty"`
}

// CellRow is one NDJSON row of a sweep response (and the whole /v1/sim
// response).
type CellRow struct {
	Model          string  `json:"model"`
	Batch          int     `json:"batch"`
	MMU            string  `json:"mmu"`
	PageSize       string  `json:"page_size"`
	Cycles         int64   `json:"cycles"`
	Translations   int64   `json:"translations"`
	NormalizedPerf float64 `json:"normalized_perf"`
	// Counters is the cell's audited counter bundle (internal/counters).
	Counters counters.Bundle `json:"counters"`
	// Sampled is the sampling audit, present only for sampled-mode cells
	// (exact rows are byte-identical to pre-redesign ones).
	Sampled *SampleJSON `json:"sampled,omitempty"`
}

// SweepSummary is the final NDJSON line of a sweep response. Counters is
// the field-wise sum of every row's bundle — the conservation laws are
// linear, so the summary bundle satisfies the same invariants the per-cell
// bundles do.
type SweepSummary struct {
	Summary           bool            `json:"summary"`
	Cells             int             `json:"cells"`
	AvgNormalizedPerf float64         `json:"avg_normalized_perf"`
	Counters          counters.Bundle `json:"counters"`
}

// parseAll maps every name through parse (nil for an empty axis).
func parseAll[T any](names []string, parse func(string) (T, error)) ([]T, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]T, len(names))
	for i, n := range names {
		v, err := parse(n)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// cellTiming captures one cell's per-stage durations as it moves through
// the cache, the scheduler queue, the disk tier, and the simulator — the
// raw material of a trace.Span. The miss-owner fields (queueNS, diskNS,
// computeNS, diskHit) are written inside the compute closure, which
// happens-before the flight's done channel closes, so the span builder
// reading them after Flight.Wait needs no atomics.
type cellTiming struct {
	start     time.Time
	cacheNS   int64 // the Resolve call itself: lookup + scheduler admission
	queueNS   int64 // submit → dequeue (the scheduler queue wait)
	diskNS    int64 // durable-tier read on a RAM miss (0 with no store)
	computeNS int64 // the simulation itself
	diskHit   bool  // the durable tier answered; nothing was simulated
	scheduled bool  // this request owned the compute (cache miss)
}

// local is the Server's CellSource: the scheduler, the LRU cell cache,
// the durable store and the simulator.
type local struct{ *Server }

// Resolve schedules every point through the cell cache, deduplicating
// against cached, in-flight, and same-request work. ctx is the requesting
// client's context: a cell still queued when every client interested in
// it disconnects is dropped at dequeue, never simulated (see
// Cache.Resolve).
func (s local) Resolve(ctx context.Context, job Job) (Pending, error) {
	h := job.Harness
	eff := h.Options().Effort
	fs := &flights{s: s.Server, job: job,
		fls: make([]*Flight[cellValue], len(job.Points)), timings: make([]*cellTiming, len(job.Points))}
	for i, p := range job.Points {
		p := p
		key := keyOf(p, eff)
		hash := maphash.Comparable(s.seed, key)
		ct := &cellTiming{start: time.Now()}
		fs.timings[i] = ct
		fl, err := s.cells.Resolve(ctx, key,
			func(run func()) error {
				ct.scheduled = true
				submitted := time.Now()
				return s.sched.Submit(hash, func() {
					ct.queueNS = int64(time.Since(submitted))
					run()
				})
			},
			func() (cellValue, error) {
				// RAM miss: the durable tier answers before a simulation is
				// spent. Disk hits bypass the simulated counter and the
				// counter aggregate — both book only work this process did.
				if s.store != nil {
					t0 := time.Now()
					v, ok := s.diskGet(key)
					ct.diskNS = int64(time.Since(t0))
					if ok {
						ct.diskHit = true
						return v, nil
					}
				}
				s.metrics.simulated.Add(1)
				t0 := time.Now()
				perf, res, err := h.NormPerf(p.Model, p.Batch, p.MMU())
				ct.computeNS = int64(time.Since(t0))
				if err != nil {
					return cellValue{}, fmt.Errorf("%s: %w", p.Label(), err)
				}
				s.metrics.addCounters(res.Counters)
				v := cellValue{
					Cycles:       int64(res.Cycles),
					Translations: res.Translations,
					Perf:         perf,
					Counters:     res.Counters,
					Sampled:      sampleJSON(res.Sampled),
				}
				s.diskPut(key, v)
				return v, nil
			})
		ct.cacheNS = int64(time.Since(ct.start))
		if err != nil {
			return nil, err
		}
		if fl.Hit {
			fs.hits++
		}
		fs.fls[i] = fl
	}
	return fs, nil
}

// flights is one request's cells on the local source: a cache flight and
// a timing record per point.
type flights struct {
	s       *Server
	job     Job
	fls     []*Flight[cellValue]
	timings []*cellTiming
	hits    int
}

func (fs *flights) Hits() int { return fs.hits }

func (fs *flights) Close() {}

// Wait joins cell i's flight — which resolves even for a client that hung
// up, so ctx is not consulted — and records its span.
func (fs *flights) Wait(_ context.Context, i int) (CellLine, error) {
	fl := fs.fls[i]
	tw := time.Now()
	v, err := fl.Wait()
	fs.s.recordCellSpan(fs.job.TraceID, i, fs.job.Points[i], fl, fs.timings[i], int64(time.Since(tw)), v, err)
	return CellLine{
		Cycles: v.Cycles, Translations: v.Translations, Perf: v.Perf,
		Counters: v.Counters, Sampled: v.Sampled, Hit: fl.Hit,
	}, err
}

// recordCellSpan builds and records the trace span for one resolved cell.
// waitNS is the observed Flight.Wait duration — for a request that joined
// another request's in-flight computation it is the only wait this request
// saw, attributed to the queue stage. The span's total is the sum of its
// stages, so per-stage durations always account for the whole span.
func (s *Server) recordCellSpan(traceID string, i int, p exp.Point, fl *Flight[cellValue], ct *cellTiming, waitNS int64, v cellValue, err error) {
	var st trace.Stages
	st[trace.StageCache] = ct.cacheNS
	switch {
	case fl.Hit:
		// RAM hit: the lookup was the whole cell.
	case ct.scheduled:
		st[trace.StageQueue] = ct.queueNS
		st[trace.StageDisk] = ct.diskNS
		st[trace.StageCompute] = ct.computeNS
	default:
		// Joined another request's in-flight computation: its owner's span
		// carries the disk/compute split; this request only waited.
		st[trace.StageQueue] = waitNS
	}
	sp := trace.Span{
		TraceID: traceID, Kind: "cell", Name: p.Label(), Index: i,
		Start: ct.start, TotalNS: st.Sum(), Stages: st,
		Hit: fl.Hit, DiskHit: ct.diskHit,
	}
	if err != nil {
		sp.Err = err.Error()
	} else if ct.scheduled && !ct.diskHit {
		c := v.Counters
		sp.Counters = &c
	}
	s.tracer.Record(sp)
}

func setCacheHeader(w http.ResponseWriter, hit bool) {
	if hit {
		w.Header().Set("X-Neuserve-Cache", "hit")
	} else {
		w.Header().Set("X-Neuserve-Cache", "miss")
	}
}
