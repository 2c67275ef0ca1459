package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/npu"
	"neummu/internal/serve"
	"neummu/internal/stats"
)

// env is one benchmark invocation's settings.
type env struct {
	seed    uint64
	seconds time.Duration
	refDir  string
	outDir  string // span files go to <outDir>/traces
	workDir string // scratch space for store directories
	log     io.Writer
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(e *env, tr *tracing) (*phase, error)
}

var workloadList = []workload{
	{"cold-fleet", runCold},
	{"fast-modes", runFast},
	{"mixed-fleet", runMixed},
	{"paperfigs-quick", runFigures},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// phase is one measured instance of a workload: its set-ups, its passes
// over the workload's request set, and every operation's timing and
// outcome. An operation is one request, or one figure render.
type phase struct {
	mu     sync.Mutex
	setups []time.Duration
	walls  []time.Duration // one per pass
	cells  []int           // cells (figures, on paperfigs-quick) per pass
	// p50s and p99s are each pass's operation latency percentiles, in ms.
	p50s, p99s []float64
	// timed is the summed time of every timed loop of every pass, and
	// fleets the number of deployments the passes served from.
	timed     time.Duration
	fleets    int
	ops       []time.Duration // operation latency, from due time
	firstRows []time.Duration
	streams   []time.Duration // first row to last byte
	late      []time.Duration // open loop: send time minus due time
	attempted int
	failed    int

	fast fastStats
	// figure render times by name and the counter total of the last
	// pass's simulations (paperfigs-quick).
	figTimes map[string][]time.Duration
	figTotal counters.Bundle
	// replay lists the unique cells the phase requested (traced runs).
	replay []replayCell
}

// check books one operation's outcome; why is "" for a correct one.
func (ph *phase) check(e *env, why string) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	if why != "" {
		ph.failed++
		fmt.Fprintf(e.log, "perfbench: failed: %s\n", why)
	}
}

// record books one request's outcome and timings.
func (ph *phase) record(e *env, out sweepOut, due time.Time, why string) {
	ph.check(e, why)
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.ops = append(ph.ops, out.lastByte.Sub(due))
	ph.late = append(ph.late, out.sent.Sub(due))
	if !out.firstRow.IsZero() {
		ph.firstRows = append(ph.firstRows, out.firstRow.Sub(out.sent))
		ph.streams = append(ph.streams, out.lastByte.Sub(out.firstRow))
	}
}

// endPass books one pass: its wall time, its cell count, and the latency
// percentiles of the operations recorded since index from of ph.ops.
func (ph *phase) endPass(e *env, wall time.Duration, cells, from int) {
	ops := ms(ph.ops[from:])
	ph.walls = append(ph.walls, wall)
	ph.cells = append(ph.cells, cells)
	ph.p50s = append(ph.p50s, stats.Percentile(ops, 0.5))
	ph.p99s = append(ph.p99s, stats.Percentile(ops, 0.99))
	fmt.Fprintf(e.log, "perfbench: pass %d: %.3fs, p50 %.4gms, p99 %.4gms\n",
		len(ph.walls)-1, wall.Seconds(), ph.p50s[len(ph.p50s)-1], ph.p99s[len(ph.p99s)-1])
}

// cellsPerSec is the median pass's throughput.
func (ph *phase) cellsPerSec() float64 {
	rates := make([]float64, len(ph.walls))
	for i, w := range ph.walls {
		rates[i] = ratio(float64(ph.cells[i]), w.Seconds())
	}
	return median(rates)
}

// traceID names a traced request so its spans can be fetched from every
// process; untraced requests carry no ID.
func traceID(tr *tracing, pass, i int) string {
	if tr == nil {
		return ""
	}
	return fmt.Sprintf("perfbench-%d-%d", pass, i)
}

// setupReps is how many times each pass sets its workload up: setup_s is
// the median of every set-up a run times, and only the last instance of
// each pass serves it.
const setupReps = 5

// setUp times build setupReps times, releasing each instance but the
// last before building the next, and returns the last one's release.
func (ph *phase) setUp(build func() (release func(), err error)) (func(), error) {
	release := func() {}
	for k := 0; k < setupReps; k++ {
		release()
		t0 := time.Now()
		r, err := build()
		if err != nil {
			return nil, err
		}
		ph.setups = append(ph.setups, time.Since(t0))
		release = r
	}
	return release, nil
}

// closedLoop runs passes of a fleet workload until the measured pass
// time reaches e.seconds. Each pass sets up a fresh deployment and sends
// the pass's requests one after another. gen loads the references and
// builds a pass's requests; check verifies one response ("" = correct).
func closedLoop(e *env, tr *tracing, ph *phase, spec fleetSpec,
	gen func(pass int) ([]request, error), check func(request, sweepOut) string) error {
	ctx := context.Background()
	spec.ringSize = tr.ring()
	var measured time.Duration
	for pass := 0; pass == 0 || measured < e.seconds; pass++ {
		var reqs []request
		var f *fleet
		release, err := ph.setUp(func() (func(), error) {
			var err error
			if reqs, err = gen(pass); err != nil {
				return nil, err
			}
			if f, err = startFleet(spec, tr.recorder()); err != nil {
				return nil, err
			}
			return f.stop, nil
		})
		if err != nil {
			return err
		}
		tr.fleetStarted(f)
		from, cells := len(ph.ops), 0
		start := time.Now()
		for i, req := range reqs {
			id := traceID(tr, pass, i)
			out := sweep(ctx, f.client, f.entry.url(), req.body, id)
			ph.record(e, out, out.sent, check(req, out))
			tr.afterRequest(f, id, len(req.cells))
			cells += len(req.cells)
		}
		wall := time.Since(start)
		tr.fleetDone(f)
		release()
		ph.endPass(e, wall, cells, from)
		ph.timed += wall
		ph.fleets++
		measured += wall
	}
	return nil
}

// runCold sends the 84-cell grid to a fresh two-worker fleet, one
// closed-loop request per model, once per pass.
func runCold(e *env, tr *tracing) (*phase, error) {
	ph := &phase{}
	var refs rowRefs
	gen := func(pass int) ([]request, error) {
		var err error
		if refs, err = loadRows(filepath.Join(e.refDir, "cold-fleet.rows")); err != nil {
			return nil, err
		}
		reqs := coldRequests(newRNG(e.seed, uint64(pass)))
		for i := range reqs {
			reqs[i] = withSummary(refs, reqs[i])
		}
		return reqs, nil
	}
	check := func(req request, out sweepOut) string { return checkBytes(refs, req, out) }
	spec := fleetSpec{workers: 2, serve: serve.Config{Workers: 1}}
	if err := closedLoop(e, tr, ph, spec, gen, check); err != nil {
		return nil, err
	}
	for _, req := range coldRequests(newRNG(e.seed, 0)) {
		ph.replay = append(ph.replay, replayCells(req, exp.Effort{}, always, refs)...)
	}
	return ph, nil
}

// fastStats accumulates the fast-modes answers against the monolithic
// reference.
type fastStats struct {
	driftMaxPct          float64
	sampledCells, ciMiss int
	epochWalks, refWalks int64
	sampledSim, popTotal int64
}

// runFast sends each fast-modes sweep once on the epoch engine and once
// sampled to a fresh single server, closed loop, once per pass.
func runFast(e *env, tr *tracing) (*phase, error) {
	ph := &phase{}
	var refs map[string]fastRef
	gen := func(pass int) ([]request, error) {
		var err error
		if refs, err = loadFast(filepath.Join(e.refDir, "fast-modes.tsv")); err != nil {
			return nil, err
		}
		return fastRequests(newRNG(e.seed, uint64(pass))), nil
	}
	check := func(req request, out sweepOut) string {
		rows, why := checkLaws(req, out)
		if why == "" {
			why = ph.fast.add(refs, req, rows)
		}
		return why
	}
	// One shard shared by both workers. serve.New seeds its shard hash at
	// random per process, so with the default sharding a request's two
	// cells share a shard on half the fresh servers and the passes of one
	// run spread too widely to bound. That placement defect is open and
	// this workload does not measure it (see README.md).
	spec := fleetSpec{serve: serve.Config{Workers: 2, Shards: 1}}
	if err := closedLoop(e, tr, ph, spec, gen, check); err != nil {
		return nil, err
	}
	for _, req := range fastRequests(newRNG(e.seed, 0)) {
		eff := exp.Effort{IntraCellWorkers: 2}
		if req.sampled {
			eff = exp.Effort{Mode: exp.EffortSampled}
		}
		ph.replay = append(ph.replay, replayCells(req, eff, always, nil)...)
	}
	return ph, nil
}

// add folds one checked fast-modes response into the drift statistics.
func (s *fastStats) add(refs map[string]fastRef, req request, rows []serve.CellRow) string {
	for i, r := range rows {
		ref, ok := refs[req.cells[i]]
		if !ok || ref.perf == 0 {
			return "no monolithic reference for " + req.cells[i]
		}
		s.driftMaxPct = math.Max(s.driftMaxPct, math.Abs(r.NormalizedPerf-ref.perf)/ref.perf*100)
		if r.Sampled == nil {
			s.epochWalks += r.Counters.WalksIssued
			s.refWalks += ref.walks
			continue
		}
		s.sampledCells++
		if ref.cycles < r.Sampled.CyclesLo || ref.cycles > r.Sampled.CyclesHi {
			s.ciMiss++
		}
		s.sampledSim += int64(r.Sampled.Simulated)
		s.popTotal += int64(r.Sampled.Population)
	}
	return ""
}

// mixedRate is the open-loop send rate of mixed-fleet, in requests per
// second: about a quarter of the closed-loop rate measured on a 2-vCPU
// host, so that one sender keeps the schedule while the other waits on a
// miss (see README.md).
const mixedRate = 125.0

// mixedPassSeconds is the length of one pass's open-loop schedule.
const mixedPassSeconds = 2.0

// mixedCacheBytes bounds each mixed-fleet worker's RAM cell cache below
// its share of the warm grid (~135 cells of ~640 bytes each), so part
// of the warm working set is served from disk.
const mixedCacheBytes = 64 << 10

// mixedEffort is the effort every mixed-fleet request asks for.
var mixedEffort = exp.Effort{RepeatCap: 1, TileCap: 4}

// runMixed warms two disk stores through a first fleet, then runs passes
// until the measured time reaches e.seconds. Each pass draws its own
// request sequence and sends it twice, each time to a fresh fleet over
// the warm stores (a disk-warm restart that has simulated none of the
// sequence's unseen cells): once on the open-loop schedule at mixedRate,
// which gives the pass's latency percentiles, and once closed loop, which
// gives its wall time. After each restart the files it wrote are removed,
// so every restart opens the same warm stores.
func runMixed(e *env, tr *tracing) (*phase, error) {
	ph := &phase{}
	ctx := context.Background()
	t0 := time.Now()
	refs, err := loadRows(filepath.Join(e.refDir, "mixed-fleet.rows"))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.workDir, "mixed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	warmDir := filepath.Join(dir, "warm")
	spec := fleetSpec{workers: 2, serve: serve.Config{Workers: 1, CacheBytes: mixedCacheBytes}, storeDir: warmDir}
	warm, err := startFleet(spec, nil)
	if err != nil {
		return nil, err
	}
	for _, req := range warmRequests() {
		req = withSummary(refs, req)
		out := sweep(ctx, warm.client, warm.entry.url(), req.body, "")
		ph.check(e, checkBytes(refs, req, out))
	}
	warm.stop()
	warmDur := time.Since(t0)
	warmFiles, err := regularFiles(warmDir)
	if err != nil {
		return nil, err
	}

	spec.ringSize = tr.ring()
	// drive sends reqs to a restarted fleet and returns the time from
	// the start to the last byte. Each set-up sample is the warm-up plus
	// one restart.
	drive := func(run int, reqs []request, rate float64) (time.Duration, error) {
		t := time.Now()
		f, err := startFleet(spec, tr.recorder())
		if err != nil {
			return 0, err
		}
		ph.setups = append(ph.setups, warmDur+time.Since(t))
		tr.storeOpened(f.storeDur)
		tr.fleetStarted(f)
		wall := sendAll(e, tr, ph, f, run, reqs, refs, rate)
		tr.fleetDone(f)
		f.stop()
		ph.fleets++
		return wall, removeAllBut(warmDir, warmFiles)
	}
	n := int(math.Ceil(mixedRate * mixedPassSeconds))
	seen := make(map[string]bool)
	var measured time.Duration
	for pass := 0; pass == 0 || measured < e.seconds; pass++ {
		reqs := mixedRequests(newRNG(e.seed, uint64(pass)), n)
		cells := 0
		for i := range reqs {
			reqs[i] = withSummary(refs, reqs[i])
			cells += len(reqs[i].cells)
			for _, c := range replayCells(reqs[i], mixedEffort, unseen, refs) {
				if !seen[c.key] {
					seen[c.key] = true
					ph.replay = append(ph.replay, c)
				}
			}
		}
		from := len(ph.ops)
		open, err := drive(2*pass, reqs, mixedRate)
		if err != nil {
			return nil, err
		}
		closed, err := drive(2*pass+1, reqs, 0)
		if err != nil {
			return nil, err
		}
		ph.endPass(e, closed, cells, from)
		ph.timed += open + closed
		measured += open + closed
	}
	return ph, nil
}

// sendAll sends reqs to f from two senders that take requests in order
// and returns the time from the start to the last byte. With rate > 0
// request i is due at start + i/rate (open loop): a request whose sender
// is still busy goes out late, its latency still counts from its due
// time, and its timings are recorded. With rate 0 each sender sends its
// next request as soon as its last one is answered (closed loop), and
// only the outcomes are recorded.
func sendAll(e *env, tr *tracing, ph *phase, f *fleet, run int, reqs []request, refs rowRefs, rate float64) time.Duration {
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	var last time.Time
	start := time.Now()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				id := traceID(tr, run, i)
				out := sweep(ctx, f.client, f.entry.url(), reqs[i].body, id)
				if why := checkBytes(refs, reqs[i], out); rate > 0 {
					ph.record(e, out, due, why)
				} else {
					ph.check(e, why)
				}
				tr.afterRequest(f, id, len(reqs[i].cells))
				lastMu.Lock()
				if out.lastByte.After(last) {
					last = out.lastByte
				}
				lastMu.Unlock()
			}
		}()
	}
	wg.Wait()
	return last.Sub(start)
}

// regularFiles lists the regular files of the tree at root.
func regularFiles(root string) (map[string]bool, error) {
	files := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files[path] = true
		}
		return err
	})
	return files, err
}

// removeAllBut removes every regular file of the tree at root that keep
// does not list.
func removeAllBut(root string, keep map[string]bool) error {
	files, err := regularFiles(root)
	if err != nil {
		return err
	}
	for path := range files {
		if !keep[path] {
			if err := os.Remove(path); err != nil {
				return err
			}
		}
	}
	return nil
}

// figObserver audits every simulation a figure run performs.
type figObserver struct {
	mu         sync.Mutex
	total      counters.Bundle
	violations atomic.Int64
}

func (o *figObserver) observe(res *npu.Result) {
	if len(res.Counters.Violations()) > 0 {
		o.violations.Add(1)
	}
	o.mu.Lock()
	o.total = o.total.Add(res.Counters)
	o.mu.Unlock()
}

// runFigures renders every registry figure, in registry order, on a fresh
// quick harness per pass.
func runFigures(e *env, tr *tracing) (*phase, error) {
	names := figures.Names()
	ph := &phase{figTimes: make(map[string][]time.Duration)}
	rec := tr.recorder()
	var measured time.Duration
	for pass := 0; pass == 0 || measured < e.seconds; pass++ {
		var refs map[string][]byte
		var obs *figObserver
		var h *exp.Harness
		_, err := ph.setUp(func() (func(), error) {
			var err error
			if refs, err = loadFigures(filepath.Join(e.refDir, "paperfigs")); err != nil {
				return nil, err
			}
			obs = &figObserver{}
			h = exp.New(exp.Options{Quick: true, Workers: 2, OnResult: obs.observe})
			return func() {}, nil
		})
		if err != nil {
			return nil, err
		}
		from := len(ph.ops)
		start := time.Now()
		for _, name := range names {
			bad := obs.violations.Load()
			var buf bytes.Buffer
			end := rec.begin("figures.render." + name)
			ft := time.Now()
			err := figures.Render(h, &buf, name)
			d := time.Since(ft)
			end()
			why := ""
			switch {
			case err != nil:
				why = fmt.Sprintf("%s: %v", name, err)
			case !bytes.Equal(buf.Bytes(), refs[name]):
				why = name + ": bytes differ from reference"
			case obs.violations.Load() != bad:
				why = name + ": a simulation violates the counter conservation laws"
			}
			ph.check(e, why)
			ph.ops = append(ph.ops, d)
			ph.figTimes[name] = append(ph.figTimes[name], d)
		}
		wall := time.Since(start)
		ph.endPass(e, wall, len(names), from)
		ph.timed += wall
		measured += wall
		obs.mu.Lock()
		ph.figTotal = obs.total
		obs.mu.Unlock()
	}
	return ph, nil
}

// replayCell is one unique cell a phase requested, for the traced
// replay.
type replayCell struct {
	key string
	p   exp.Point
	eff exp.Effort
	// simulated marks a cell the phase had to simulate (every cell but
	// mixed-fleet's warm grid).
	simulated bool
	// want is the counter bundle of the cell's reference row (nil when
	// the workload has none), which the replay must reproduce.
	want *counters.Bundle
}

// replayCells lists a request's cells for the traced replay.
func replayCells(req request, eff exp.Effort, simulated func(exp.Point) bool, refs rowRefs) []replayCell {
	out := make([]replayCell, len(req.cells))
	for i, k := range req.cells {
		out[i] = replayCell{key: k, p: req.points[i], eff: eff, simulated: simulated(req.points[i])}
		if r := refs[k].row; r != nil {
			out[i].want = &r.Counters
		}
	}
	return out
}

func always(exp.Point) bool { return true }

// unseen reports whether a mixed-fleet cell lies in the never-simulated
// pool.
func unseen(p exp.Point) bool {
	for _, u := range unseenPTWs {
		if p.PTWs == u {
			return true
		}
	}
	return false
}
