package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// runBench runs the benchmark in-process and decodes its result line.
func runBench(t *testing.T, refDir string, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--ref", refDir, "--out", t.TempDir(), "--seed", "3", "--seconds", "0.01"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

func checkMetrics(t *testing.T, res result, specs []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(specs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
		}
	}
}

// A very short run of each workload prints every named metric, with its
// unit, and finds the program's outputs correct.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			res := runBench(t, "ref", "--workload", w.name, "--trace", "0")
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestShortTracedRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs replay every cell")
	}
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			res := runBench(t, "ref", "--workload", w.name, "--trace", "1")
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, perLayerSpecs())
		})
	}
}

// copyRefs copies the reference tree into a temporary directory.
func copyRefs(t *testing.T) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "ref")
	if err := os.CopyFS(dst, os.DirFS("ref")); err != nil {
		t.Fatal(err)
	}
	return dst
}

// corrupt changes one byte of a reference file: the first occurrence of
// old at or after the first occurrence of after.
func corrupt(t *testing.T, path, after string, old, new byte) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(b, []byte(after))
	i := bytes.IndexByte(b[start:], old)
	if start < 0 || i < 0 {
		t.Fatalf("%s: nothing to corrupt", path)
	}
	b[start+i] = new
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// One corrupted reference byte is a counted failure, not a crash.
func TestCorruptReferenceIsCountedFailure(t *testing.T) {
	cases := []struct {
		workload, file, after string
		old, new              byte
	}{
		// A counter digit in a warm-grid row.
		{"mixed-fleet", "mixed-fleet.rows", `"dram_accesses":`, '1', '2'},
		// A row's key separator, so the row has no key at all.
		{"mixed-fleet", "mixed-fleet.rows", "RNN-2/b4/ptw16", '\t', ' '},
		// One character of a rendered figure.
		{"paperfigs-quick", "paperfigs/fig8.txt", "CNN-1", '1', '7'},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.file, func(t *testing.T) {
			refs := copyRefs(t)
			corrupt(t, filepath.Join(refs, c.file), c.after, c.old, c.new)
			res := runBench(t, refs, "--workload", c.workload, "--trace", "0")
			if res.Correct || res.Failed < 1 || res.Failed > res.Attempted {
				t.Errorf("correct=%v attempted=%d failed=%d, want a counted failure",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

func bodies(reqs []request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = string(r.body)
	}
	return out
}

func cellSet(reqs []request) []string {
	var out []string
	for _, r := range reqs {
		out = append(out, r.cells...)
	}
	sort.Strings(out)
	return out
}

var generators = map[string]func(seed uint64) []request{
	"cold-fleet":  func(seed uint64) []request { return coldRequests(newRNG(seed, 0)) },
	"fast-modes":  func(seed uint64) []request { return fastRequests(newRNG(seed, 0)) },
	"mixed-fleet": func(seed uint64) []request { return mixedRequests(newRNG(seed, 0), 300) },
}

// The same seed gives the same request sequence.
func TestSameSeedSameRequests(t *testing.T) {
	for name, gen := range generators {
		if a, b := bodies(gen(11)), bodies(gen(11)); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 gave two different request sequences", name)
		}
	}
}

// A different seed gives a different order over the same cell set.
func TestOtherSeedReordersSameCells(t *testing.T) {
	for _, name := range []string{"cold-fleet", "fast-modes"} {
		a, b := generators[name](11), generators[name](12)
		if reflect.DeepEqual(bodies(a), bodies(b)) {
			t.Errorf("%s: seeds 11 and 12 gave the same order", name)
		}
		if !reflect.DeepEqual(cellSet(a), cellSet(b)) {
			t.Errorf("%s: seeds 11 and 12 cover different cells", name)
		}
	}
	if reflect.DeepEqual(bodies(generators["mixed-fleet"](11)), bodies(generators["mixed-fleet"](12))) {
		t.Error("mixed-fleet: seeds 11 and 12 gave the same sequence")
	}
}

// Mixed-fleet requests stay within the figure-grid scale and mostly draw
// on the warm grid.
func TestMixedRequestShape(t *testing.T) {
	reqs := mixedRequests(newRNG(5, 0), 2000)
	withUnseen := 0
	for _, r := range reqs {
		if n := len(r.cells); n < 4 || n > 32 {
			t.Fatalf("request of %d cells", n)
		}
		for _, p := range r.points {
			if unseen(p) {
				withUnseen++
				break
			}
		}
	}
	if want := len(reqs) / missEvery; withUnseen != want {
		t.Errorf("%d requests take unseen cells, want %d", withUnseen, want)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayerSpecs())
}
