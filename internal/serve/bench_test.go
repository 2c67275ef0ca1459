package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkServeSweepThroughput measures cells/sec through the full HTTP
// path — request decode, scheduler admission, cache resolve, NDJSON
// streaming — cold (every cell simulates) versus warm (every cell is a
// cache hit). The gap between the two is what the content-addressed cache
// buys a fleet of clients sweeping overlapping design spaces. CI gates it
// against bench/baseline.txt; the end-to-end benchmark is perfbench/.
func BenchmarkServeSweepThroughput(b *testing.B) {
	const payload = quickSweep // 2 models x 1 batch x 2 MMU kinds = 4 cells
	const cellsPerRequest = 4

	do := func(b *testing.B, ts *httptest.Server) {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
			strings.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := New(Config{})
			ts := httptest.NewServer(s)
			b.StartTimer()
			do(b, ts)
			b.StopTimer()
			ts.Close()
			s.Close()
			b.StartTimer()
		}
		reportCellsPerSec(b, cellsPerRequest)
	})

	b.Run("warm", func(b *testing.B) {
		s := New(Config{})
		ts := httptest.NewServer(s)
		defer func() { ts.Close(); s.Close() }()
		do(b, ts) // populate the cache outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			do(b, ts)
		}
		reportCellsPerSec(b, cellsPerRequest)
	})
}

func reportCellsPerSec(b *testing.B, cellsPerRequest int) {
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(cellsPerRequest*b.N)/sec, "cells/sec")
	}
}
