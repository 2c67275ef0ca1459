package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neummu/internal/serve"
)

// BenchmarkClusterSweep measures cells/sec through the full scale-out
// path — coordinator decode, grid expansion, consistent-hash shard
// planning, worker dispatch over HTTP, NDJSON merge — against a 2-worker
// fleet, cold (every cell simulates on its worker) versus warm (every
// cell answers from its worker's content-addressed cache). The warm
// number is the coordinator's routing+merge overhead ceiling. CI gates it
// against bench/baseline.txt; the end-to-end benchmark is perfbench/.
func BenchmarkClusterSweep(b *testing.B) {
	const payload = testSweep // 8 cells
	const cellsPerRequest = 8

	newFleet := func(b *testing.B) (*httptest.Server, func()) {
		w1 := serve.New(serve.Config{})
		ts1 := httptest.NewServer(w1)
		w2 := serve.New(serve.Config{})
		ts2 := httptest.NewServer(w2)
		c, err := New(Config{Workers: []string{ts1.URL, ts2.URL}})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(c)
		return ts, func() {
			ts.Close()
			c.Close()
			ts1.Close()
			w1.Close()
			ts2.Close()
			w2.Close()
		}
	}

	do := func(b *testing.B, ts *httptest.Server) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(payload))
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
			ts, cleanup := newFleet(b)
			b.StartTimer()
			do(b, ts)
			b.StopTimer()
			cleanup()
			b.StartTimer()
		}
		reportCellsPerSec(b, cellsPerRequest)
	})

	b.Run("warm", func(b *testing.B) {
		ts, cleanup := newFleet(b)
		defer cleanup()
		do(b, ts) // populate the worker caches outside the timer
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
