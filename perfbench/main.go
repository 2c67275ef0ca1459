// Command perfbench is the repository's benchmark. It runs four named
// workloads against the NeuMMU simulator and its serving tiers, all
// in-process on loopback listeners, checks every output against the
// reference data in ref/, and prints its metrics as one JSON line.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// run and reports the per-layer metrics. README.md describes the
// workloads, the metrics and the layer-to-end-to-end map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"neummu/internal/figures"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec names one reported metric (BENCHMARK.json lists the same).
type metricSpec struct{ name, unit, better string }

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them; see README.md for what an operation and a pass are
// on each.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"request_p50_ms", "ms", "lower"},
	{"request_p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerSpecs lists the traced run's metrics, one figure render time
// per registry entry included.
func perLayerSpecs() []metricSpec {
	specs := []metricSpec{
		{"workloads.build_plan_ms", "ms", "lower"},
		{"vm.build_translations_ms", "ms", "lower"},
		{"npu.run_ms.oracle", "ms", "lower"},
		{"npu.run_ms.iommu", "ms", "lower"},
		{"npu.run_ms.neummu", "ms", "lower"},
		{"npu.run_ms.custom", "ms", "lower"},
		{"npu.ns_per_txn.oracle", "ns", "lower"},
		{"npu.ns_per_txn.iommu", "ns", "lower"},
		{"npu.ns_per_txn.neummu", "ns", "lower"},
		{"npu.run_ms.epoched", "ms", "lower"},
		{"npu.run_ms.sampled", "ms", "lower"},
		{"npu.sampled_epoch_frac", "ratio", "lower"},
		{"npu.epoch_walk_ratio", "ratio", "lower"},
		{"npu.drift_max_pct", "%", "lower"},
		{"npu.ci_miss_frac", "ratio", "lower"},
		{"npu.busy_share", "ratio", "lower"},
		{"exp.npu_runs_per_cell", "ratio", "lower"},
		{"dma.transactions", "count", "lower"},
		{"tlb.lookups", "count", "lower"},
		{"tlb.hit_ratio", "ratio", "higher"},
		{"walker.walks_issued", "count", "lower"},
		{"walker.prmb_merges", "count", "higher"},
		{"walker.walk_dram_reads", "count", "lower"},
		{"walker.path_l4_hit_ratio", "ratio", "higher"},
		{"memsys.dram_accesses", "count", "lower"},
		{"core.stall_enters", "count", "lower"},
		{"npu.total_cycles", "cycles", "lower"},
	}
	for _, name := range figures.Names() {
		specs = append(specs, metricSpec{"figures.render_s." + name, "s", "lower"})
	}
	return append(specs, []metricSpec{
		{"figures.render_s.total", "s", "lower"},
		{"serve.queue_wait_ms.p50", "ms", "lower"},
		{"serve.queue_wait_ms.p99", "ms", "lower"},
		{"serve.cache_ms.p50", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.compute_ms.p50", "ms", "lower"},
		{"serve.cells_simulated", "count", "lower"},
		{"serve.overloads", "count", "lower"},
		{"store.disk_ms.p50", "ms", "lower"},
		{"store.disk_hit_ratio", "ratio", "higher"},
		{"store.writes", "count", "lower"},
		{"store.dropped_puts", "count", "lower"},
		{"store.evictions", "count", "lower"},
		{"store.open_ms", "ms", "lower"},
		{"cluster.merge_ms.p50", "ms", "lower"},
		{"client.stream_ms.p50", "ms", "lower"},
		{"client.first_row_ms.p50", "ms", "lower"},
		{"client.cells_per_s", "1/s", "higher"},
		{"cluster.retry_ms.total", "ms", "lower"},
		{"cluster.cells_rerouted", "count", "lower"},
		{"cluster.worker_busy_skew", "ratio", "lower"},
		{"cluster.compute_amplification", "ratio", "lower"},
		{"trace.spans_missing", "count", "lower"},
		{"bench.late_p99_ms", "ms", "lower"},
		{"bench.trace_overhead_pct", "%", "lower"},
	}...)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-fleet, fast-modes, mixed-fleet or paperfigs-quick")
	seed := fs.Uint64("seed", 1, "seed the workload's requests are generated from")
	seconds := fs.Float64("seconds", 20, "measured time")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	refDir := fs.String("ref", "perfbench/ref", "reference data directory")
	outDir := fs.String("out", ".bench_build", "directory for scratch stores and span files")
	regenRefs := fs.Bool("regen", false, "regenerate the reference data and exit")
	pfStdout := fs.String("paperfigs-stdout", "", "with -regen: saved `paperfigs -quick` stdout the figure references must equal")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regenRefs {
		if err := regen(*refDir, *pfStdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: regen:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (cold-fleet, fast-modes, mixed-fleet, paperfigs-quick), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	workDir := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		refDir: *refDir, outDir: *outDir, workDir: workDir, log: stderr,
	}
	res, err := measure(e, w, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// measure runs one workload, untraced (end-to-end metrics) or traced
// (per-layer metrics).
func measure(e *env, w workload, traced bool) (result, error) {
	var vals map[string]float64
	var attempted, failed int
	specs := endToEnd
	if traced {
		var err error
		if vals, attempted, failed, err = tracedRun(e, w); err != nil {
			return result{}, err
		}
		specs = perLayerSpecs()
	} else {
		ph, err := w.run(e, nil)
		if err != nil {
			return result{}, err
		}
		vals = map[string]float64{
			"setup_s":        median(secs(ph.setups)),
			"wall_s":         median(secs(ph.walls)),
			"request_p50_ms": median(ph.p50s),
			"request_p99_ms": median(ph.p99s),
		}
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, fmt.Errorf("metric peak_rss_mb not measured: %w", err)
		}
		vals["peak_rss_mb"] = rss
		attempted, failed = ph.attempted, ph.failed
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue)}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s not measured", s.name)
		}
		res.Metrics[s.name] = metricValue{v, s.unit}
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size: VmHWM in
// /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
