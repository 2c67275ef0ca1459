package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"neummu/internal/store"
)

// BenchmarkStoreWarmRestart measures what the disk tier buys across a
// process restart: cold = fresh process, empty store directory, every
// cell simulates; diskwarm = fresh process (empty RAM cache) over a
// store directory a previous run populated, every cell answers from
// disk. The per-iteration store open/close models the restart itself.
// The end-to-end disk-warm measurement is perfbench's mixed-fleet
// workload (perfbench/README.md).
func BenchmarkStoreWarmRestart(b *testing.B) {
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

	// boot opens the store and serves over it; the returned func is the
	// process "exit" (drain, close).
	boot := func(b *testing.B, dir string) (*httptest.Server, func()) {
		st, err := store.Open(store.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Store: st})
		ts := httptest.NewServer(s)
		return ts, func() { ts.Close(); s.Close(); st.Close() }
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ts, stop := boot(b, b.TempDir())
			b.StartTimer()
			do(b, ts)
			b.StopTimer()
			stop()
			b.StartTimer()
		}
		reportCellsPerSec(b, cellsPerRequest)
	})

	b.Run("diskwarm", func(b *testing.B) {
		dir := b.TempDir()
		ts, stop := boot(b, dir)
		do(b, ts) // populate the store outside the timer
		stop()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ts, stop := boot(b, dir)
			b.StartTimer()
			do(b, ts)
			b.StopTimer()
			stop()
			b.StartTimer()
		}
		reportCellsPerSec(b, cellsPerRequest)
	})
}
