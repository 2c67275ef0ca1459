package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"neummu/internal/counters"
	"neummu/internal/exp"
	"neummu/internal/figures"
	"neummu/internal/serve"
)

// Reference data lives in ref/ beside this file and is regenerated with
//
//	bash perfbench/run.sh --regen [--paperfigs-stdout <file>]
//
// from the repository root. Files:
//
//	cold-fleet.rows   key<TAB>row bytes, one line per cold-fleet cell
//	mixed-fleet.rows  key<TAB>row bytes, warm grid plus unseen pool
//	fast-modes.tsv    key<TAB>normalized_perf<TAB>cycles<TAB>walks_issued
//	                  of the monolithic engine (intra_cell_workers 0)
//	paperfigs/<name>.txt  figures.Render bytes of each registry entry
//
// Row references come from a single-process server. A damaged line is
// kept as far as it parses, so a corrupted byte turns into a failed
// request at check time rather than a failed load.

// rowRef is one reference row: its exact bytes and, when they decode and
// obey the conservation laws, the decoded row.
type rowRef struct {
	raw []byte
	row *serve.CellRow
}

type rowRefs map[string]rowRef

func loadRows(path string) (rowRefs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	refs := make(rowRefs)
	for _, line := range bytes.Split(data, []byte("\n")) {
		key, raw, ok := bytes.Cut(line, []byte("\t"))
		if !ok {
			continue
		}
		ref := rowRef{raw: raw}
		var r serve.CellRow
		if json.Unmarshal(raw, &r) == nil && len(r.Counters.Violations()) == 0 {
			ref.row = &r
		}
		refs[string(key)] = ref
	}
	return refs, nil
}

// withSummary fills in the summary line a correct response to req ends
// with: the mean normalized performance and the counter totals of its
// rows, in row order, encoded as the server encodes them.
func withSummary(refs rowRefs, req request) request {
	sum := 0.0
	var agg counters.Bundle
	for _, k := range req.cells {
		r, ok := refs[k]
		if !ok || r.row == nil {
			return req
		}
		sum += r.row.NormalizedPerf
		agg = agg.Add(r.row.Counters)
	}
	req.summary = mustJSON(serve.SweepSummary{
		Summary: true, Cells: len(req.cells),
		AvgNormalizedPerf: sum / float64(len(req.cells)), Counters: agg,
	})
	return req
}

// fastRef is the monolithic engine's answer for one fast-modes cell.
type fastRef struct {
	perf   float64
	cycles int64
	walks  int64
}

func loadFast(path string) (map[string]fastRef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]fastRef)
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			continue
		}
		perf, err1 := strconv.ParseFloat(f[1], 64)
		cyc, err2 := strconv.ParseInt(f[2], 10, 64)
		walks, err3 := strconv.ParseInt(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		out[f[0]] = fastRef{perf, cyc, walks}
	}
	return out, nil
}

// loadFigures reads every registry figure's reference bytes; a missing
// file leaves its entry nil, which fails that figure's check.
func loadFigures(dir string) (map[string][]byte, error) {
	out := make(map[string][]byte)
	found := 0
	for _, name := range figures.Names() {
		b, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err == nil {
			out[name] = b
			found++
		}
	}
	if found == 0 {
		return nil, fmt.Errorf("no figure references in %s", dir)
	}
	return out, nil
}

// regen rewrites every reference file from this build of the program.
// pfStdout, when set, names a saved `paperfigs -quick` stdout that the
// concatenated figure references must equal.
func regen(refDir, pfStdout string, log io.Writer) error {
	f, err := startFleet(fleetSpec{serve: serve.Config{Workers: 2}}, nil)
	if err != nil {
		return err
	}
	defer f.stop()
	ctx := context.Background()
	writeRows := func(name string, reqs []request) error {
		var buf bytes.Buffer
		for _, req := range reqs {
			out := sweep(ctx, f.client, f.entry.url(), req.body, "")
			if out.err != nil {
				return fmt.Errorf("%s: %w", name, out.err)
			}
			if len(out.rows) != len(req.cells) {
				return fmt.Errorf("%s: %d rows for %d cells", name, len(out.rows), len(req.cells))
			}
			for i, k := range req.cells {
				var r serve.CellRow
				if err := json.Unmarshal(out.rows[i], &r); err != nil {
					return fmt.Errorf("%s %s: %w", name, k, err)
				}
				if v := r.Counters.Violations(); len(v) > 0 {
					return fmt.Errorf("%s %s violates %v", name, k, v)
				}
				fmt.Fprintf(&buf, "%s\t%s\n", k, out.rows[i])
			}
		}
		fmt.Fprintf(log, "regen: %s (%d bytes)\n", name, buf.Len())
		return os.WriteFile(filepath.Join(refDir, name), buf.Bytes(), 0o644)
	}
	var cold []request
	for _, m := range coldModels {
		cold = append(cold, denseRequest(m, coldBatches, coldMMUs, coldPages, nil))
	}
	if err := writeRows("cold-fleet.rows", cold); err != nil {
		return err
	}
	if err := writeRows("mixed-fleet.rows", append(warmRequests(), unseenRequests()...)); err != nil {
		return err
	}

	var fast bytes.Buffer
	for _, c := range fastCells {
		req := denseRequest(c.model, []int{c.batch}, fastMMUs, []string{"4KB"}, nil)
		out := sweep(ctx, f.client, f.entry.url(), req.body, "")
		if out.err != nil {
			return fmt.Errorf("fast-modes reference: %w", out.err)
		}
		for i, raw := range out.rows {
			var r serve.CellRow
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			fmt.Fprintf(&fast, "%s\t%s\t%d\t%d\n", req.cells[i],
				strconv.FormatFloat(r.NormalizedPerf, 'g', -1, 64), r.Cycles, r.Counters.WalksIssued)
		}
	}
	if err := os.WriteFile(filepath.Join(refDir, "fast-modes.tsv"), fast.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(log, "regen: fast-modes.tsv")

	figDir := filepath.Join(refDir, "paperfigs")
	if err := os.MkdirAll(figDir, 0o755); err != nil {
		return err
	}
	h := exp.New(exp.Options{Quick: true, Workers: 2})
	var all bytes.Buffer
	for _, name := range figures.Names() {
		var b bytes.Buffer
		if err := figures.Render(h, &b, name); err != nil {
			return fmt.Errorf("render %s: %w", name, err)
		}
		all.Write(b.Bytes())
		if err := os.WriteFile(filepath.Join(figDir, name+".txt"), b.Bytes(), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(log, "regen: paperfigs/ (%d figures, %d bytes)\n", len(figures.Names()), all.Len())
	if pfStdout != "" {
		want, err := os.ReadFile(pfStdout)
		if err != nil {
			return err
		}
		if !bytes.Equal(all.Bytes(), want) {
			return fmt.Errorf("figure references differ from %s", pfStdout)
		}
		fmt.Fprintf(log, "regen: figure references equal %s\n", pfStdout)
	}
	return nil
}
