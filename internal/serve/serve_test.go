package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func genTrace(t testing.TB, bench string, refs int, seed int64) *trace.Buffer {
	t.Helper()
	b, err := workload.Generate(bench, refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeEvents encodes a slice of events in the binary record format:
// upload chunks must split at record boundaries, so tests encode event
// subsets rather than slicing one encoded stream.
func encodeEvents(t testing.TB, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chunkEvents splits events into n nearly equal parts.
func chunkEvents(events []trace.Event, n int) [][]trace.Event {
	out := make([][]trace.Event, 0, n)
	per := (len(events) + n - 1) / n
	for i := 0; i < len(events); i += per {
		end := i + per
		if end > len(events) {
			end = len(events)
		}
		out = append(out, events[i:end])
	}
	return out
}

func do(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func post(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	return do(t, http.MethodPost, url, body)
}

func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	return do(t, http.MethodGet, url, nil)
}

// counter reads one counter or gauge from the server's /v1/metrics.
func counter(t testing.TB, base, name string) int64 {
	t.Helper()
	code, body := get(t, base+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d: %s", code, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Counters[name]; ok {
		return int64(v)
	}
	if v, ok := snap.Gauges[name]; ok {
		return v
	}
	t.Fatalf("metric %q not in /v1/metrics", name)
	return 0
}

func batchSnapshot(t testing.TB, b *trace.Buffer) []byte {
	t.Helper()
	a := core.Analyze(b, core.Options{SkipPotential: true})
	out, err := online.SnapshotFromAnalysis(a).MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServedSnapshotMatchesBatch uploads one trace in several chunked
// POSTs and checks the served snapshot is byte-identical to the batch
// pipeline over the same records — the service-level half of the
// equivalence guarantee (and what the CI smoke step re-checks from the
// shell).
func TestServedSnapshotMatchesBatch(t *testing.T) {
	b := genTrace(t, "boxsim", 20_000, 1)
	ts := httptest.NewServer(New(online.Options{}, 2, nil).Handler())
	defer ts.Close()

	for _, part := range chunkEvents(b.Events(), 3) {
		code, body := post(t, ts.URL+"/v1/ingest?session=eq", encodeEvents(t, part))
		if code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", code, body)
		}
	}
	code, got := get(t, ts.URL+"/v1/snapshot?session=eq")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", code, got)
	}
	if want := batchSnapshot(t, b); !bytes.Equal(got, want) {
		t.Error("served snapshot differs from batch pipeline output")
	}
}

// TestConcurrentIngestHammer streams 8 sessions concurrently (the
// acceptance bar is 4), each in several chunked POSTs, under the race
// detector in CI. It then verifies per-session integrity: every session
// saw exactly its own events, the server's counters read the exact
// totals, and a spot-checked session's snapshot still matches its batch
// reference — concurrency must not leak records across sessions.
func TestConcurrentIngestHammer(t *testing.T) {
	const sessions = 8
	ts := httptest.NewServer(New(online.Options{}, 0, nil).Handler())
	defer ts.Close()

	bufs := make([]*trace.Buffer, sessions)
	var totalEvents uint64
	for i := range bufs {
		bufs[i] = genTrace(t, "boxsim", 6_000, int64(i+1))
		totalEvents += uint64(bufs[i].Len())
	}

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/ingest?session=h%d", ts.URL, i)
			for _, part := range chunkEvents(bufs[i].Events(), 5) {
				resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(encodeEvents(t, part)))
				if err != nil {
					errs[i] = err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs[i] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("session h%d: status %d", i, resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	if got := counter(t, ts.URL, "locserve.records"); got != int64(totalEvents) {
		t.Errorf("records counter = %d, want %d", got, totalEvents)
	}
	if got := counter(t, ts.URL, "locserve.sessions"); got != sessions {
		t.Errorf("sessions counter = %d, want %d", got, sessions)
	}
	if counter(t, ts.URL, "locserve.rules") <= 0 {
		t.Error("rules gauge did not advance")
	}

	var listing struct {
		Sessions []struct {
			Session string `json:"session"`
			Events  uint64 `json:"events"`
		} `json:"sessions"`
	}
	code, body := get(t, ts.URL+"/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("sessions: status %d", code)
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != sessions {
		t.Fatalf("listed %d sessions, want %d", len(listing.Sessions), sessions)
	}
	for i, s := range listing.Sessions {
		if want := fmt.Sprintf("h%d", i); s.Session != want {
			t.Fatalf("session %d listed as %q, want %q", i, s.Session, want)
		}
		if s.Events != uint64(bufs[i].Len()) {
			t.Errorf("session %s has %d events, want %d", s.Session, s.Events, bufs[i].Len())
		}
	}

	// Cross-session integrity: a concurrent neighbor must not perturb a
	// session's analysis.
	code, got := get(t, ts.URL+"/v1/snapshot?session=h3")
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if want := batchSnapshot(t, bufs[3]); !bytes.Equal(got, want) {
		t.Error("session h3 snapshot differs from its batch reference after concurrent ingest")
	}
}

// TestAllSessionsSnapshot checks the aggregate endpoint fans detection
// across sessions and keys results by name.
func TestAllSessionsSnapshot(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 2, nil).Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		b := genTrace(t, "boxsim", 4_000, int64(i+1))
		code, body := post(t, fmt.Sprintf("%s/v1/ingest?session=all%d", ts.URL, i), encodeEvents(t, b.Events()))
		if code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", code, body)
		}
	}
	code, body := get(t, ts.URL+"/v1/snapshot")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var all map[string]*online.Snapshot
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("aggregate snapshot has %d sessions, want 3", len(all))
	}
	for name, snap := range all {
		if snap.Trace.Refs == 0 {
			t.Errorf("session %s: zero refs in aggregate snapshot", name)
		}
	}
}

func TestSectionEndpoints(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	b := genTrace(t, "boxsim", 5_000, 1)
	if code, body := post(t, ts.URL+"/v1/ingest?session=s", encodeEvents(t, b.Events())); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	for _, ep := range []string{"/v1/stats", "/v1/hotstreams", "/v1/locality"} {
		code, body := get(t, ts.URL+ep+"?session=s")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, code, body)
		}
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", ep, err)
		}
		if len(v) == 0 {
			t.Errorf("%s: empty object", ep)
		}
	}
	if code, body := get(t, ts.URL+"/v1/hotstreams?session=s"); code != http.StatusOK || !strings.Contains(string(body), `"threshold"`) {
		t.Errorf("hotstreams endpoint missing threshold: status %d: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/vars"); code != http.StatusOK {
		t.Errorf("/debug/vars: status %d", code)
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}
}

func TestEndpointErrors(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/v1/ingest?session=x"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET ingest: status %d, want 405", code)
	}
	if code, _ := post(t, ts.URL+"/v1/ingest", nil); code != http.StatusBadRequest {
		t.Errorf("ingest without session: status %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/v1/snapshot?session=nope"); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/stats"); code != http.StatusBadRequest {
		t.Errorf("stats without session: status %d, want 400", code)
	}
	// A corrupt upload reports an error but keeps already-decoded events.
	b := genTrace(t, "boxsim", 2_000, 1)
	enc := encodeEvents(t, b.Events())
	code, body := post(t, ts.URL+"/v1/ingest?session=c", enc[:len(enc)-3])
	if code != http.StatusBadRequest {
		t.Errorf("corrupt upload: status %d, want 400: %s", code, body)
	}
	var listing struct {
		Sessions []struct {
			Events uint64 `json:"events"`
		} `json:"sessions"`
	}
	if _, body := get(t, ts.URL+"/v1/sessions"); json.Unmarshal(body, &listing) == nil {
		if len(listing.Sessions) != 1 || listing.Sessions[0].Events == 0 {
			t.Errorf("corrupt upload should retain decoded prefix, got %+v", listing)
		}
	}
}

// TestEvictionBoundsServer checks the -max-rules serving mode: the rule
// gauge respects the cap and the eviction counter equals the session's
// evictions.
func TestEvictionBoundsServer(t *testing.T) {
	const cap = 64
	ts := httptest.NewServer(New(online.Options{MaxRules: cap}, 1, nil).Handler())
	defer ts.Close()
	b := genTrace(t, "176.gcc", 20_000, 1)
	for _, part := range chunkEvents(b.Events(), 10) {
		if code, body := post(t, ts.URL+"/v1/ingest?session=ev", encodeEvents(t, part)); code != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", code, body)
		}
	}
	var listing struct {
		Sessions []struct {
			Rules     int    `json:"rules"`
			Evictions uint64 `json:"evictions"`
		} `json:"sessions"`
	}
	_, body := get(t, ts.URL+"/v1/sessions")
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 {
		t.Fatalf("listed %d sessions, want 1", len(listing.Sessions))
	}
	if listing.Sessions[0].Rules > cap {
		t.Errorf("rules = %d exceeds cap %d after ingest", listing.Sessions[0].Rules, cap)
	}
	if listing.Sessions[0].Evictions == 0 {
		t.Error("session reports zero evictions")
	}
	if got := counter(t, ts.URL, "locserve.evictions"); got != int64(listing.Sessions[0].Evictions) {
		t.Errorf("evictions counter = %d, want the session's %d", got, listing.Sessions[0].Evictions)
	}
	if got := counter(t, ts.URL, "locserve.rules"); got != int64(listing.Sessions[0].Rules) {
		t.Errorf("rules gauge = %d, want the session's %d", got, listing.Sessions[0].Rules)
	}
	if code, _ := get(t, ts.URL+"/v1/snapshot?session=ev"); code != http.StatusOK {
		t.Errorf("snapshot under eviction: status %d", code)
	}
}

// TestCloseAndHistory closes a store-backed session and replays the
// persisted snapshot through /v1/history: the served bytes must be the
// exact batch-equivalent snapshot the session would have answered live.
func TestCloseAndHistory(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(online.Options{}, 1, st).Handler())
	defer ts.Close()
	b := genTrace(t, "boxsim", 6000, 3)
	if code, body := post(t, ts.URL+"/v1/ingest?session=run", encodeEvents(t, b.Events())); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	want := batchSnapshot(t, b)

	code, body := post(t, ts.URL+"/v1/close?session=run", nil)
	if code != http.StatusOK {
		t.Fatalf("close: status %d: %s", code, body)
	}
	var res CloseResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Artifact != "history/run/0001" {
		t.Errorf("artifact = %q, want history/run/0001", res.Artifact)
	}
	if res.Refs == 0 || !res.Digest.Valid() {
		t.Errorf("close result missing refs/digest: %+v", res)
	}

	// The session is retired: further queries and closes 404.
	if code, _ := get(t, ts.URL+"/v1/snapshot?session=run"); code != http.StatusNotFound {
		t.Errorf("snapshot after close: status %d, want 404", code)
	}
	if code, _ := post(t, ts.URL+"/v1/close?session=run", nil); code != http.StatusNotFound {
		t.Errorf("second close: status %d, want 404", code)
	}

	// History lists the artifact and serves its bytes verbatim.
	code, body = get(t, ts.URL+"/v1/history")
	if code != http.StatusOK {
		t.Fatalf("history list: status %d: %s", code, body)
	}
	var listing struct {
		History []historyEntry `json:"history"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	entries := listing.History
	if len(entries) != 1 || entries[0].Name != res.Artifact || entries[0].Session != "run" {
		t.Fatalf("history listing = %+v", entries)
	}
	code, body = get(t, ts.URL+"/v1/history?name="+res.Artifact)
	if code != http.StatusOK {
		t.Fatalf("history fetch: status %d", code)
	}
	if !bytes.Equal(body, want) {
		t.Error("persisted snapshot differs from the batch reference")
	}
	if code, _ := get(t, ts.URL+"/v1/history?name=history/run/9999"); code != http.StatusNotFound {
		t.Errorf("unknown history artifact: status %d, want 404", code)
	}
}

// TestCloseSequenceNumbers: repeated sessions under one name accumulate
// ordered history entries.
func TestCloseSequenceNumbers(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(online.Options{}, 1, st).Handler())
	defer ts.Close()
	for i, seed := range []int64{1, 9} {
		b := genTrace(t, "boxsim", 3000, seed)
		if code, body := post(t, ts.URL+"/v1/ingest?session=nightly", encodeEvents(t, b.Events())); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, code, body)
		}
		var res CloseResult
		_, body := post(t, ts.URL+"/v1/close?session=nightly", nil)
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("history/nightly/%04d", i+1)
		if res.Artifact != want {
			t.Errorf("close %d artifact = %q, want %q", i, res.Artifact, want)
		}
	}
	if got := len(st.Names("history/nightly/")); got != 2 {
		t.Errorf("%d history entries, want 2", got)
	}
}

// TestCloseWithoutStore: ephemeral servers still close sessions; history
// is explicitly unavailable.
func TestCloseWithoutStore(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	b := genTrace(t, "boxsim", 2000, 1)
	if code, body := post(t, ts.URL+"/v1/ingest?session=tmp", encodeEvents(t, b.Events())); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	code, body := post(t, ts.URL+"/v1/close?session=tmp", nil)
	if code != http.StatusOK {
		t.Fatalf("close: status %d: %s", code, body)
	}
	var res CloseResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Artifact != "" || res.Digest != "" {
		t.Errorf("storeless close reported an artifact: %+v", res)
	}
	if code, _ := get(t, ts.URL+"/v1/history"); code != http.StatusNotFound {
		t.Errorf("history without store: status %d, want 404", code)
	}
	if code, _ := post(t, ts.URL+"/v1/close", nil); code != http.StatusBadRequest {
		t.Errorf("close without session: status %d, want 400", code)
	}
}

// TestCloseSnapshotsOnlyIntoStore: a closing session's final snapshot
// exists to be kept in the store, so a server without one computes
// none.
func TestCloseSnapshotsOnlyIntoStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		st   *store.Store
		want int64
	}{{"no store", nil, 0}, {"store", st, 1}} {
		ts := httptest.NewServer(New(online.Options{}, 1, tc.st).Handler())
		ingestSession(t, ts.URL, "s", "boxsim", 2_000, 1)
		if code, body := post(t, ts.URL+"/v1/close?session=s", nil); code != http.StatusOK {
			t.Fatalf("%s: close: status %d: %s", tc.name, code, body)
		}
		if got := counter(t, ts.URL, "locserve.snapshots"); got != tc.want {
			t.Errorf("%s: close computed %d snapshots, want %d", tc.name, got, tc.want)
		}
		ts.Close()
	}
}

// TestEmptySessionsRetainLittle: opening a session costs kilobytes, not
// the engine's eventual size. 256 empty uploads to distinct names open
// 256 sessions, which together must retain at most 8 MiB.
func TestEmptySessionsRetainLittle(t *testing.T) {
	const n, ceiling = 256, 8 << 20
	srv := New(online.Options{}, 1, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Warm the client's connection so its buffers are not counted.
	if code, body := get(t, ts.URL+"/v1/sessions"); code != http.StatusOK {
		t.Fatalf("sessions: status %d: %s", code, body)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	for i := 0; i < n; i++ {
		if code, body := post(t, fmt.Sprintf("%s/v1/ingest?session=e%d", ts.URL, i), nil); code != http.StatusOK {
			t.Fatalf("ingest e%d: status %d: %s", i, code, body)
		}
	}
	after := live()
	runtime.KeepAlive(srv)
	if got := counter(t, ts.URL, "locserve.sessions"); got != n {
		t.Fatalf("%d sessions open, want %d", got, n)
	}
	retained := int64(after - before)
	t.Logf("%d empty sessions retain %.2f MiB (%.1f KiB each)", n, float64(retained)/(1<<20), float64(retained)/n/1024)
	if retained > ceiling {
		t.Errorf("%d empty sessions retain %d bytes, want at most %d", n, retained, ceiling)
	}
}
