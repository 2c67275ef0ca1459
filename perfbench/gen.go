package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"neummu/internal/core"
	"neummu/internal/exp"
	"neummu/internal/serve"
	"neummu/internal/vm"
	"neummu/internal/walker"
)

// This file generates each workload's requests from the seed. The
// program under test sees only the request bodies; the benchmark keeps,
// beside each body, the cell keys its response rows must carry in order.
// Keys follow the grid order the API documents for /v1/sweep: MMU kind,
// page size, TLB entries, PTWs, PRMB slots, model, batch (outer to
// inner).

// request is one generated /v1/sweep call.
type request struct {
	body []byte
	// cells are the reference keys of the expected rows, in row order,
	// and points the design points they stand for.
	cells  []string
	points []exp.Point
	// summary is the expected summary line (nil = check it structurally:
	// fast-modes, or a request whose reference rows are damaged).
	summary []byte
	// sampled marks a fast-modes request in sampled mode.
	sampled bool
}

func denseKey(mmu, ps, model string, batch int) string {
	return fmt.Sprintf("%s/%s/%s/b%d", mmu, ps, model, batch)
}

func customKey(model string, batch, ptw, prmb, tlb int) string {
	return fmt.Sprintf("%s/b%d/ptw%d/prmb%d/tlb%d", model, batch, ptw, prmb, tlb)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// denseRequest is a named-kind sweep over one model.
func denseRequest(model string, batches []int, mmus, pss []string, eff *serve.WireEffort) request {
	req := serve.SweepRequest{Models: []string{model}, Batches: batches, MMUs: mmus, PageSizes: pss, Effort: eff}
	out := request{body: mustJSON(req)}
	for _, k := range mmus {
		for _, ps := range pss {
			for _, b := range batches {
				out.cells = append(out.cells, denseKey(k, ps, model, b))
				out.points = append(out.points, exp.Point{
					Kind: kindByName[k], PageSize: pageByName[ps], Model: model, Batch: b,
				})
			}
		}
	}
	return out
}

var kindByName = map[string]core.Kind{
	"oracle": core.Oracle, "iommu": core.IOMMU, "neummu": core.NeuMMU,
}

var pageByName = map[string]vm.PageSize{"4KB": vm.Page4K, "2MB": vm.Page2M}

// customRequest is a custom-walker sweep at the mixed-fleet effort.
func customRequest(models []string, batches, ptws, prmbs, tlbs []int) request {
	req := serve.SweepRequest{
		Models: models, Batches: batches, MMUs: []string{"custom"},
		PTWs: ptws, PRMBSlots: prmbs, TLBEntries: tlbs,
		Effort: &serve.WireEffort{RepeatCap: mixedEffort.RepeatCap, TileCap: mixedEffort.TileCap},
	}
	out := request{body: mustJSON(req)}
	for _, t := range tlbs {
		for _, p := range ptws {
			for _, r := range prmbs {
				for _, m := range models {
					for _, b := range batches {
						out.cells = append(out.cells, customKey(m, b, p, r, t))
						out.points = append(out.points, exp.Point{
							Kind: core.Custom, PageSize: vm.Page4K, Model: m, Batch: b,
							PTWs: p, PRMBSlots: r, PTS: true, Path: walker.PathTPreg, TLBEntries: t,
						})
					}
				}
			}
		}
	}
	return out
}

// cold-fleet: the 84-cell grid, one 12-cell sub-grid per model.
var (
	coldModels  = []string{"CNN-1", "CNN-2", "CNN-3", "RNN-1", "RNN-2", "RNN-3", "TF-1"}
	coldBatches = []int{1, 4}
	coldMMUs    = []string{"oracle", "iommu", "neummu"}
	coldPages   = []string{"4KB", "2MB"}
)

func coldRequests(rng *rand.Rand) []request {
	out := make([]request, len(coldModels))
	for i, j := range rng.Perm(len(coldModels)) {
		out[i] = denseRequest(coldModels[j], coldBatches, coldMMUs, coldPages, nil)
	}
	return out
}

// fast-modes: the drift cells and the long-decode cell, each swept once
// on the epoch engine and once sampled.
var fastCells = []struct {
	model string
	batch int
}{{"CNN-3", 4}, {"RNN-2", 4}, {"TF-1", 4}, {"TF-2", 1}}

var fastMMUs = []string{"iommu", "neummu"}

func fastRequests(rng *rand.Rand) []request {
	var all []request
	for _, c := range fastCells {
		r := denseRequest(c.model, []int{c.batch}, fastMMUs, []string{"4KB"},
			&serve.WireEffort{IntraCellWorkers: 2})
		all = append(all, r)
		r = denseRequest(c.model, []int{c.batch}, fastMMUs, []string{"4KB"},
			&serve.WireEffort{Mode: "sampled"})
		r.sampled = true
		all = append(all, r)
	}
	out := make([]request, len(all))
	for i, j := range rng.Perm(len(all)) {
		out[i] = all[j]
	}
	return out
}

// mixed-fleet: a 270-cell warm grid and a disjoint pool of never-simulated
// walker counts.
var (
	mixedModels  = []string{"RNN-1", "RNN-2", "RNN-3"}
	mixedBatches = []int{1, 4, 8}
	warmPTWs     = []int{8, 16, 32, 64, 128}
	unseenPTWs   = []int{24, 48, 96}
	mixedPRMBs   = []int{1, 8, 32}
	mixedTLBs    = []int{512, 2048}
)

// warmRequests covers the warm grid, one 90-cell sweep per model.
func warmRequests() []request {
	out := make([]request, len(mixedModels))
	for i, m := range mixedModels {
		out[i] = customRequest([]string{m}, mixedBatches, warmPTWs, mixedPRMBs, mixedTLBs)
	}
	return out
}

// unseenRequests covers the unseen pool (reference generation only).
func unseenRequests() []request {
	out := make([]request, len(mixedModels))
	for i, m := range mixedModels {
		out[i] = customRequest([]string{m}, mixedBatches, unseenPTWs, mixedPRMBs, mixedTLBs)
	}
	return out
}

// missEvery spaces mixed-fleet's misses: every missEvery-th load request
// takes one cell from the unseen pool.
const missEvery = 20

// mixedRequests draws n sweeps of 4..32 cells over the warm grid. Every
// missEvery-th one instead sweeps three warm walker counts plus one
// unseen one, at one model, batch, PRMB and TLB size. The unseen cells
// come in one fixed shuffled order, the same for every seed, so each run
// simulates the same cells at the same points of its schedule and the
// seed varies only the traffic around them. Once the pool is used up such
// requests hit like the rest.
func mixedRequests(rng *rand.Rand, n int) []request {
	var pool []exp.Point
	for _, req := range unseenRequests() {
		pool = append(pool, req.points...)
	}
	fixed := newRNG(0, 0)
	fixed.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := make([]request, 0, n)
	for len(out) < n {
		if len(out)%missEvery == missEvery/2 {
			u := pool[0]
			pool = append(pool[1:], u)
			ptws := []int{u.PTWs}
			for _, p := range rng.Perm(len(warmPTWs))[:3] {
				ptws = append(ptws, warmPTWs[p])
			}
			sort.Ints(ptws)
			out = append(out, customRequest([]string{u.Model}, []int{u.Batch}, ptws,
				[]int{u.PRMBSlots}, []int{u.TLBEntries}))
			continue
		}
		models := pick(rng, mixedModels, 2)
		batches := pick(rng, mixedBatches, 3)
		ptws := pick(rng, warmPTWs, 3)
		prmbs := pick(rng, mixedPRMBs, 3)
		tlbs := pick(rng, mixedTLBs, 2)
		size := len(models) * len(batches) * len(ptws) * len(prmbs) * len(tlbs)
		if size < 4 || size > 32 {
			continue
		}
		out = append(out, customRequest(models, batches, ptws, prmbs, tlbs))
	}
	return out
}

// pick draws 1..max distinct elements of xs, keeping their order in xs.
func pick[T any](rng *rand.Rand, xs []T, max int) []T {
	k := 1 + rng.IntN(max)
	idx := rng.Perm(len(xs))[:k]
	sort.Ints(idx)
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// newRNG returns the generator for one seed and pass: the same pair
// always yields the same requests.
func newRNG(seed, pass uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, pass)) }
