package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"neummu/internal/counters"
	"neummu/internal/serve"
	"neummu/internal/trace"
)

// sweepOut is one /v1/sweep response as the client saw it.
type sweepOut struct {
	rows     [][]byte // row lines, newline stripped
	summary  []byte
	sent     time.Time
	firstRow time.Time // zero when no row arrived
	lastByte time.Time
	err      error
}

// sweep POSTs one request and reads the NDJSON stream to its end.
func sweep(ctx context.Context, c *http.Client, base string, body []byte, traceID string) (out sweepOut) {
	out.sent = time.Now()
	defer func() { out.lastByte = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.Header, traceID)
	}
	resp, err := c.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	br := bufio.NewReader(resp.Body)
	var lines [][]byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if out.firstRow.IsZero() {
				out.firstRow = time.Now()
			}
			lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	if len(lines) == 0 {
		out.err = fmt.Errorf("empty response")
		return out
	}
	out.rows, out.summary = lines[:len(lines)-1], lines[len(lines)-1]
	if bytes.HasPrefix(out.summary, []byte(`{"error"`)) {
		out.err = fmt.Errorf("stream error: %s", out.summary)
	}
	return out
}

// checkBytes verifies a response byte for byte against the reference
// rows and the expected summary. It returns "" when the response is
// correct, otherwise the first discrepancy.
func checkBytes(refs rowRefs, req request, out sweepOut) string {
	if out.err != nil {
		return out.err.Error()
	}
	if len(out.rows) != len(req.cells) {
		return fmt.Sprintf("%d rows, want %d", len(out.rows), len(req.cells))
	}
	for i, k := range req.cells {
		ref, ok := refs[k]
		if !ok {
			return "no reference row for " + k
		}
		if !bytes.Equal(out.rows[i], ref.raw) {
			return "row differs from reference: " + k
		}
	}
	if req.summary == nil {
		return "no expected summary (damaged reference rows)"
	}
	if !bytes.Equal(out.summary, req.summary) {
		return "summary differs from reference"
	}
	return ""
}

// checkLaws verifies a fast-modes response: every row is the expected
// cell, carries the sampling audit exactly when sampled, and obeys the
// counter conservation laws; the summary totals the rows. It returns the
// decoded rows and "" when the response is correct.
func checkLaws(req request, out sweepOut) ([]serve.CellRow, string) {
	if out.err != nil {
		return nil, out.err.Error()
	}
	if len(out.rows) != len(req.cells) {
		return nil, fmt.Sprintf("%d rows, want %d", len(out.rows), len(req.cells))
	}
	rows := make([]serve.CellRow, len(out.rows))
	var agg counters.Bundle
	for i, raw := range out.rows {
		r := &rows[i]
		if err := json.Unmarshal(raw, r); err != nil {
			return nil, "bad row: " + err.Error()
		}
		if k := denseKey(r.MMU, r.PageSize, r.Model, r.Batch); k != req.cells[i] {
			return nil, fmt.Sprintf("row %d is %s, want %s", i, k, req.cells[i])
		}
		if (r.Sampled != nil) != req.sampled {
			return nil, "sampling audit presence wrong for " + req.cells[i]
		}
		if v := r.Counters.Violations(); len(v) > 0 {
			return nil, fmt.Sprintf("%s violates %v", req.cells[i], v)
		}
		agg = agg.Add(r.Counters)
	}
	var sum serve.SweepSummary
	if err := json.Unmarshal(out.summary, &sum); err != nil {
		return nil, "bad summary: " + err.Error()
	}
	if !sum.Summary || sum.Cells != len(rows) || sum.Counters != agg {
		return nil, "summary does not total the rows"
	}
	return rows, ""
}
