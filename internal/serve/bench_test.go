package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"repro/internal/online"
)

// benchScale mirrors the root package's BENCH_SCALE knob so the
// in-process and over-the-wire ingest benchmarks can be sized
// identically.
func benchScale() int {
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 60_000
}

// TestHTTPIngestAllocs is the over-the-wire ingest path's allocation
// gate, shaped like BenchmarkHTTPIngest: one POST /v1/ingest of boxsim
// at 60k references to a fresh session may allocate at most 247 times,
// client and server together. Steady-state ingest allocates nothing
// per record, so the count is request handling, session and engine
// construction, and the O(log n) growth steps of the engine's tables
// and slabs; a per-record allocation would add tens of thousands. The
// ceiling is 193 allocations, once measured on this path, plus 20% and
// 16 of slack. Allocation counts do not depend on the host, so the gate
// holds anywhere.
func TestHTTPIngestAllocs(t *testing.T) {
	const ceiling = 247
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	buf := genTrace(t, "boxsim", 60_000, 1)
	enc := encodeEvents(t, buf.Events())
	client := ts.Client()
	i := 0
	allocs := testing.AllocsPerRun(3, func() {
		i++
		url := fmt.Sprintf("%s/v1/ingest?session=allocs%d", ts.URL, i)
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	})
	t.Logf("%d records: %.0f allocs", buf.Len(), allocs)
	if allocs > ceiling {
		t.Errorf("one upload of %d records allocated %.0f times, want at most %d", buf.Len(), allocs, ceiling)
	}
}

// BenchmarkHTTPIngest measures the full over-the-wire ingest path: HTTP
// request handling, batched decode straight off the body, and the
// per-session engine loop, one whole upload per iteration into a fresh
// session. records/op divided by ns/op gives sustained records per
// nanosecond at the service boundary.
func BenchmarkHTTPIngest(b *testing.B) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	buf := genTrace(b, "boxsim", benchScale(), 1)
	enc := encodeEvents(b, buf.Events())
	client := ts.Client()

	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		url := fmt.Sprintf("%s/v1/ingest?session=bench%d", ts.URL, i)
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		// Drain so the keep-alive connection is reusable.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(buf.Len()), "records/op")
}
