package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/memsys"
	"neummu/internal/npu"
	"neummu/internal/stats"
	"neummu/internal/systolic"
	"neummu/internal/vm"
	"neummu/internal/workloads"
)

// The traced run (--trace 1) measures the workload twice with the same
// seed, half the run time each: first untraced, exactly as --trace 0
// does, then traced — raised span rings, each request's spans read from
// every process the moment its last byte arrives, Prometheus counters
// scraped around each fleet's life, and the benchmark's own spans around
// its calls into the program. It then replays the traced phase's unique
// cells in-process, once through workloads.BuildPlan ->
// npu.BuildTranslations -> npu.Run and once through
// exp.Harness.SweepPoints, and derives every per-layer metric.

// tracedRun returns the per-layer metrics and the operation counts of
// both phases.
func tracedRun(e *env, w workload) (map[string]float64, int, int, error) {
	half := *e
	half.seconds = e.seconds / 2
	a, err := w.run(&half, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	tr := newTracing(e)
	b, err := w.run(&half, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	rp, err := replay(tr.rec, b.replay)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted := a.attempted + b.attempted + rp.cells
	failed := a.failed + b.failed + rp.mismatches + tr.col.errs
	m := perLayer(a, b, tr, rp)
	if tr.col.dropped > 0 {
		fmt.Fprintf(e.log, "perfbench: %d spans were still missing one request later\n", tr.col.dropped)
	}
	if err := tr.rec.write(filepath.Join(e.outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))); err != nil {
		fmt.Fprintf(e.log, "perfbench: writing spans: %v\n", err)
	}
	return m, attempted, failed, nil
}

// replayOut is what the in-process replay measured.
type replayOut struct {
	cells      int
	mismatches int                      // replayed bundle differs from the served row
	total      counters.Bundle          // over every replayed cell
	runNS      map[string]time.Duration // npu.Run time by class
	txns       map[string]int64         // DMA transactions by class
	simNS      time.Duration            // npu.Run time of the cells the phase simulated
	runs       int64                    // npu runs SweepPoints performed
}

// runClass names the npu.run_ms bucket of a replayed cell.
func runClass(c replayCell) string {
	switch {
	case c.eff.Sampled():
		return "sampled"
	case c.eff.Epoched():
		return "epoched"
	}
	return c.p.Kind.String()
}

// replay simulates each unique cell in-process, serially, with a span
// around every call into the simulator's layers.
func replay(rec *spanRec, cells []replayCell) (replayOut, error) {
	out := replayOut{cells: len(cells), runNS: make(map[string]time.Duration), txns: make(map[string]int64)}
	if len(cells) == 0 {
		return out, nil
	}
	type planKey struct {
		model string
		batch int
	}
	type snapKey struct {
		planKey
		ps vm.PageSize
	}
	plans := make(map[planKey]*workloads.Plan)
	snaps := make(map[snapKey]*vm.Snapshot)
	for _, c := range cells {
		pk := planKey{c.p.Model, c.p.Batch}
		plan, ok := plans[pk]
		if !ok {
			m, err := workloads.ByName(c.p.Model)
			if err != nil {
				return out, err
			}
			end := rec.begin("workloads.build_plan")
			plan, err = workloads.BuildPlan(m, c.p.Batch, workloads.DefaultTiles())
			end()
			if err != nil {
				return out, err
			}
			plans[pk] = plan
		}
		sk := snapKey{pk, c.p.PageSize}
		snap, ok := snaps[sk]
		if !ok {
			end := rec.begin("vm.build_translations")
			snap = npu.BuildTranslations(plan, c.p.PageSize)
			end()
			snaps[sk] = snap
		}
		opts := exp.New(exp.Options{Effort: c.eff, Workers: 1}).Options()
		cfg := npu.Config{
			MMU: c.p.MMU(), Memory: memsys.Baseline(), Compute: systolic.Baseline(),
			RepeatCap: opts.RepeatCap, TileCap: opts.TileCap,
			IntraCellWorkers: opts.Effort.IntraCellWorkers,
			Sampled:          opts.Effort.Sampled(), SampleTargetCI: opts.Effort.TargetCI,
			Translations: snap,
		}
		class := runClass(c)
		end := rec.begin("npu.run." + class)
		t0 := time.Now()
		res, err := npu.Run(plan, cfg)
		d := time.Since(t0)
		end()
		if err != nil {
			return out, fmt.Errorf("replay %s: %w", c.key, err)
		}
		out.runNS[class] += d
		out.txns[class] += res.Counters.DMATransactions
		out.total = out.total.Add(res.Counters)
		if c.simulated {
			out.simNS += d
		}
		if c.want != nil && *c.want != res.Counters {
			out.mismatches++
		}
	}

	// The same cells through the harness, counting its npu runs.
	var runs atomic.Int64
	byEffort := make(map[exp.Effort][]exp.Point)
	var order []exp.Effort
	for _, c := range cells {
		if _, ok := byEffort[c.eff]; !ok {
			order = append(order, c.eff)
		}
		byEffort[c.eff] = append(byEffort[c.eff], c.p)
	}
	for _, eff := range order {
		h := exp.New(exp.Options{Effort: eff, Workers: 2, OnResult: func(*npu.Result) { runs.Add(1) }})
		end := rec.begin("exp.sweep_points")
		_, err := h.SweepPoints(byEffort[eff])
		end()
		if err != nil {
			return out, err
		}
	}
	out.runs = runs.Load()
	return out, nil
}

// perLayer derives every per-layer metric from the untraced phase a, the
// traced phase b and the replay. A layer the workload does not exercise
// reports 0.
func perLayer(a, b *phase, tr *tracing, rp replayOut) map[string]float64 {
	m := make(map[string]float64)
	self := tr.rec.selfTimes()
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	col := tr.col

	m["workloads.build_plan_ms"] = msOf(self["workloads.build_plan"])
	m["vm.build_translations_ms"] = msOf(self["vm.build_translations"])
	for _, k := range []string{"oracle", "iommu", "neummu", "custom", "epoched", "sampled"} {
		m["npu.run_ms."+k] = msOf(rp.runNS[k])
	}
	for _, k := range []string{"oracle", "iommu", "neummu"} {
		m["npu.ns_per_txn."+k] = ratio(float64(rp.runNS[k]), float64(rp.txns[k]))
	}
	fs := b.fast
	m["npu.sampled_epoch_frac"] = ratio(float64(fs.sampledSim), float64(fs.popTotal))
	m["npu.epoch_walk_ratio"] = ratio(float64(fs.epochWalks), float64(fs.refWalks))
	m["npu.drift_max_pct"] = fs.driftMaxPct
	m["npu.ci_miss_frac"] = ratio(float64(fs.ciMiss), float64(fs.sampledCells))
	// Two simulation slots serve every fleet workload (two one-worker
	// workers, or one two-worker server), and each deployment simulates
	// the phase's unique simulated cells once.
	m["npu.busy_share"] = ratio(rp.simNS.Seconds()*float64(b.fleets), 2*b.timed.Seconds())
	m["exp.npu_runs_per_cell"] = ratio(float64(rp.runs), float64(rp.cells))

	t := rp.total
	if rp.cells == 0 {
		t = b.figTotal
	}
	m["dma.transactions"] = float64(t.DMATransactions)
	m["tlb.lookups"] = float64(t.TLBLookups)
	m["tlb.hit_ratio"] = ratio(float64(t.TLBHits), float64(t.TLBLookups))
	m["walker.walks_issued"] = float64(t.WalksIssued)
	m["walker.prmb_merges"] = float64(t.PRMBMerges)
	m["walker.walk_dram_reads"] = float64(t.WalkDRAMReads)
	m["walker.path_l4_hit_ratio"] = ratio(float64(t.PathL4Hits), float64(t.PathProbes))
	m["memsys.dram_accesses"] = float64(t.DRAMAccesses)
	m["core.stall_enters"] = float64(t.StallEnters)
	m["npu.total_cycles"] = float64(t.TotalCycles)

	for _, name := range figures.Names() {
		m["figures.render_s."+name] = median(secs(b.figTimes[name]))
	}
	if b.figTimes != nil {
		m["figures.render_s.total"] = median(secs(b.walls))
	} else {
		m["figures.render_s.total"] = 0
	}

	// Counts and summed times are per deployment of the traced phase (one
	// pass over the request sequence each), so they do not depend on how
	// many passes fit in the run.
	fleets := float64(b.fleets)
	p := col.prom
	m["serve.queue_wait_ms.p50"] = stats.Percentile(col.queue, 0.5)
	m["serve.queue_wait_ms.p99"] = stats.Percentile(col.queue, 0.99)
	m["serve.cache_ms.p50"] = stats.Percentile(col.cache, 0.5)
	m["serve.cache_hit_ratio"] = ratio(p["cache_hits"], p["cache_hits"]+p["cache_joins"]+p["cache_misses"])
	m["serve.compute_ms.p50"] = stats.Percentile(col.compute, 0.5)
	m["serve.cells_simulated"] = ratio(p["simulated"], fleets)
	m["serve.overloads"] = ratio(p["overloads"], fleets)
	m["store.disk_ms.p50"] = stats.Percentile(col.disk, 0.5)
	m["store.disk_hit_ratio"] = ratio(p["disk_hits"], p["disk_hits"]+p["disk_misses"])
	m["store.writes"] = ratio(p["writes"], fleets)
	m["store.dropped_puts"] = ratio(p["dropped_puts"], fleets)
	m["store.evictions"] = ratio(p["evictions"], fleets)
	m["store.open_ms"] = median(ms(col.storeOpen))

	m["cluster.merge_ms.p50"] = stats.Percentile(col.merge, 0.5)
	m["client.stream_ms.p50"] = median(ms(b.streams))
	m["client.first_row_ms.p50"] = median(ms(b.firstRows))
	m["client.cells_per_s"] = a.cellsPerSec()
	m["cluster.retry_ms.total"] = ratio(float64(col.retryNS)/1e6, fleets)
	m["cluster.cells_rerouted"] = ratio(p["rerouted"], fleets)
	var busyMax, busySum float64
	for _, ns := range col.busy {
		busyMax = max(busyMax, float64(ns))
		busySum += float64(ns)
	}
	if n := len(col.busy); n > 0 {
		m["cluster.worker_busy_skew"] = busyMax / (busySum / float64(n))
	} else {
		m["cluster.worker_busy_skew"] = 0
	}
	m["cluster.compute_amplification"] = ratio(ratio(busySum, fleets), float64(rp.simNS))

	m["trace.spans_missing"] = ratio(float64(col.missing), fleets)
	m["bench.late_p99_ms"] = stats.Percentile(ms(a.late), 0.99)
	m["bench.trace_overhead_pct"] = ratio(a.cellsPerSec()-b.cellsPerSec(), a.cellsPerSec()) * 100
	return m
}
