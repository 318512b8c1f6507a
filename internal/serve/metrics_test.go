package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// TestMetricNamesStable is the regression gate on the service's metric
// namespace: dashboards and the cluster-smoke script address metrics by
// these exact names, so renaming one is a breaking change that must
// show up in review as an edit to this list.
func TestMetricNamesStable(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()

	b := genTrace(t, "boxsim", 5_000, 1)
	if code, body := post(t, ts.URL+"/v1/ingest?session=m", encodeEvents(t, b.Events())); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, body)
	}
	if code, _ := get(t, ts.URL+"/v1/snapshot?session=m"); code != http.StatusOK {
		t.Fatal("snapshot failed")
	}

	code, body := get(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d: %s", code, body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/v1/metrics is not an obs snapshot: %v", err)
	}

	for _, name := range []string{
		"locserve.sessions", "locserve.records",
		"locserve.evictions", "locserve.snapshots",
		"online.events", "online.chunks", "online.evictions",
		"trace.records", "trace.bytes",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q missing from /v1/metrics", name)
		}
	}
	if _, ok := snap.Gauges["locserve.rules"]; !ok {
		t.Error(`gauge "locserve.rules" missing from /v1/metrics`)
	}

	// Every snapshot-path stage must be present with samples and
	// latency quantiles — the acceptance bar for per-stage p50/p99.
	for _, stage := range pipeline.SnapshotStages() {
		ts, ok := snap.Timers[pipeline.StageTimerName(stage)]
		if !ok {
			t.Errorf("stage timer %q missing from /v1/metrics", pipeline.StageTimerName(stage))
			continue
		}
		if ts.Count == 0 {
			t.Errorf("stage %q has zero samples after a snapshot", stage)
		}
		if ts.P99NS < ts.P50NS {
			t.Errorf("stage %q: p99 %d < p50 %d", stage, ts.P99NS, ts.P50NS)
		}
	}
	if !strings.Contains(string(body), `"p50Ns"`) || !strings.Contains(string(body), `"p99Ns"`) {
		t.Error("/v1/metrics payload lacks p50Ns/p99Ns fields")
	}

	// The registry is the server's, not the process's: a second server
	// has seen none of the first one's records.
	other := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer other.Close()
	if got := counter(t, other.URL, "locserve.records"); got != 0 {
		t.Errorf("second server reads locserve.records %d, want 0", got)
	}
}

// TestDroppedServerIsCollected: nothing outside a server keeps it alive
// once its caller drops it. The finalizer sits on the server's store,
// which only the server references; the server itself is in a cycle
// with its rules gauge closure, and Go does not promise to run a
// finalizer set on an object in a cycle.
func TestDroppedServerIsCollected(t *testing.T) {
	defer obs.SetDefault(obs.Default())
	obs.SetDefault(nil) // a default registry keeps its last server's gauge
	collected := make(chan struct{})
	func() {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(st, func(*store.Store) { close(collected) })
		ts := httptest.NewServer(New(online.Options{}, 1, st).Handler())
		defer ts.Close()
		ingestSession(t, ts.URL, "d", "boxsim", 500, 1)
		if code, body := post(t, ts.URL+"/v1/close?session=d", nil); code != http.StatusOK {
			t.Fatalf("close: status %d: %s", code, body)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("dropped server was never collected")
		}
	}
}
