// Command benchgate is CI's performance-regression gate: it compares a
// fresh `go test -bench` run against a committed baseline and fails when
// any pinned benchmark got more than -threshold percent slower.
//
// Usage:
//
//	go test -run '^$' -bench 'DenseSuiteSerial' -count 6 ./... | tee new.txt
//	benchgate -baseline bench/baseline.txt -new new.txt -threshold 15
//
// Both inputs are standard Go benchmark output. Multiple -count runs of
// one benchmark are reduced to their minimum ns/op before comparing.
// Minimum, not median: scheduling hiccups, noisy neighbours, and GC pauses
// on shared CI runners only ever ADD time, so the fastest of six runs is
// the best estimate of the code's true cost on that machine, and gating
// min-vs-min keeps one-sided noise (which can swing sub-millisecond
// benchmarks' individual samples far past any sane threshold) from
// flapping the gate; the -threshold margin absorbs the rest. Every
// benchmark present in the baseline must appear in the new run — a
// silently vanished benchmark would otherwise un-gate itself.
//
// In the spirit of CounterPoint's counter-based refutation of performance
// assumptions, the point is that speedup claims are machine-checked on
// every push rather than asserted in prose (the end-to-end benchmark is
// perfbench/, declared in BENCHMARK.json). The
// committed baseline is re-recorded (same commands, see
// .github/workflows/ci.yml) whenever the hardware class or a deliberate
// perf change moves the floor.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one Go benchmark result line, e.g.
//
//	BenchmarkDenseSuiteSerial-4   3   1212930572 ns/op   12 B/op ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// procSuffix is the -N GOMAXPROCS suffix Go appends to benchmark names
// on multi-proc runs (absent at GOMAXPROCS=1). It is stripped so a
// baseline recorded at one width still matches runs at another — CI pins
// GOMAXPROCS for the gated benchmarks anyway (see ci.yml), this just
// keeps the tool from reporting every benchmark "missing" if the pin and
// the baseline ever disagree.
var procSuffix = regexp.MustCompile(`-\d+$`)

func parse(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q: %v", path, sc.Text(), err)
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		out[name] = append(out[name], ns)
	}
	return out, sc.Err()
}

// best reduces one benchmark's -count samples to the minimum ns/op (see
// the package comment for why minimum beats median here).
func best(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func main() {
	var (
		baselinePath = flag.String("baseline", "bench/baseline.txt", "committed baseline benchmark output")
		newPath      = flag.String("new", "", "fresh benchmark output to gate")
		threshold    = flag.Float64("threshold", 15, "maximum tolerated slowdown in percent")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -new is required")
		os.Exit(2)
	}
	baseline, err := parse(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	fresh, err := parse(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmarks in baseline %s\n", *baselinePath)
		os.Exit(2)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		base := best(baseline[name])
		runs, ok := fresh[name]
		if !ok {
			fmt.Printf("FAIL  %-52s missing from the new run (baseline %.0f ns/op)\n", name, base)
			failed = true
			continue
		}
		cur := best(runs)
		delta := (cur - base) / base * 100
		verdict := "ok  "
		if delta > *threshold {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %-52s %14.0f -> %14.0f ns/op  (%+.1f%%, limit +%.0f%%)\n",
			verdict, name, base, cur, delta, *threshold)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: performance regression beyond %.0f%% (or missing benchmark); "+
			"if this slowdown is intentional, re-record bench/baseline.txt with the commands in ci.yml\n", *threshold)
		os.Exit(1)
	}
}
