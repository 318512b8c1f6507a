package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/fleet"
	"repro/internal/online"
	"repro/internal/store"
)

// ingestSession uploads a generated workload into one session.
func ingestSession(t *testing.T, base, session, bench string, refs int, seed int64) {
	t.Helper()
	b := genTrace(t, bench, refs, seed)
	code, body := post(t, base+"/v1/ingest?session="+session, encodeEvents(t, b.Events()))
	if code != http.StatusOK {
		t.Fatalf("ingest %s: status %d: %s", session, code, body)
	}
}

// TestFleetViews exercises the live fleet endpoints end to end: two
// boxsim sessions and one sqlserver session should merge into a
// provenance-counted stream view and cluster by workload family.
func TestFleetViews(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 2, nil).Handler())
	defer ts.Close()
	ingestSession(t, ts.URL, "box1", "boxsim", 4_000, 1)
	ingestSession(t, ts.URL, "box2", "boxsim", 4_000, 2)
	ingestSession(t, ts.URL, "db1", "sqlserver", 4_000, 1)

	var fv fleet.FingerprintsView
	code, body := get(t, ts.URL+"/v1/fleet/fingerprints")
	if code != http.StatusOK {
		t.Fatalf("fingerprints: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &fv); err != nil {
		t.Fatal(err)
	}
	if fv.Sessions != 3 || len(fv.Fingerprints) != 3 {
		t.Fatalf("fingerprints: %d sessions, %d entries", fv.Sessions, len(fv.Fingerprints))
	}
	for i, want := range []string{"box1", "box2", "db1"} {
		if fv.Fingerprints[i].Session != want {
			t.Errorf("fingerprint[%d] = %s, want %s", i, fv.Fingerprints[i].Session, want)
		}
	}

	var sv fleet.StreamsView
	code, body = get(t, ts.URL+"/v1/fleet/streams?top=5")
	if code != http.StatusOK {
		t.Fatalf("streams: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Sessions != 3 || sv.TotalStreams == 0 || len(sv.Streams) > 5 {
		t.Errorf("streams view: %+v", sv)
	}
	for i := 1; i < len(sv.Streams); i++ {
		if sv.Streams[i].Weight > sv.Streams[i-1].Weight {
			t.Errorf("streams out of weight order at %d", i)
		}
	}

	var cv fleet.ClustersView
	code, body = get(t, ts.URL+"/v1/fleet/clusters")
	if code != http.StatusOK {
		t.Fatalf("clusters: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &cv); err != nil {
		t.Fatal(err)
	}
	if len(cv.Clusters) != 2 {
		t.Fatalf("clusters = %+v, want the 2 workload families", cv.Clusters)
	}
	got := map[string]int{}
	for _, c := range cv.Clusters {
		got[c.ID] = c.Size
	}
	if got["box1"] != 2 || got["db1"] != 1 {
		t.Errorf("cluster assignment %v, want box1:2 db1:1", got)
	}

	// Parameter validation is shared with the gateway: same messages,
	// same rejects.
	if code, _ := get(t, ts.URL+"/v1/fleet/streams?top=-1"); code != http.StatusBadRequest {
		t.Errorf("bad top: status %d", code)
	}
	for _, q := range []string{"/v1/fleet/clusters?threshold=1.5", "/v1/fleet/clusters?threshold=NaN"} {
		if code, _ := get(t, ts.URL+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

// TestFleetDrift closes sessions to create history baselines, then
// checks the drift view separates a stable session from one whose
// workload changed out from under its name.
func TestFleetDrift(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(online.Options{}, 2, st).Handler())
	defer ts.Close()

	// "stable" re-runs the same workload after its close; "turned"
	// becomes a different family. "fresh" has no history at all.
	ingestSession(t, ts.URL, "stable", "boxsim", 4_000, 1)
	ingestSession(t, ts.URL, "turned", "boxsim", 4_000, 2)
	for _, name := range []string{"stable", "turned"} {
		if code, body := post(t, ts.URL+"/v1/close?session="+name, nil); code != http.StatusOK {
			t.Fatalf("close %s: status %d: %s", name, code, body)
		}
	}
	ingestSession(t, ts.URL, "stable", "boxsim", 4_000, 1)
	ingestSession(t, ts.URL, "turned", "sqlserver", 4_000, 2)
	ingestSession(t, ts.URL, "fresh", "boxsim", 4_000, 3)

	var dv fleet.DriftView
	code, body := get(t, ts.URL+"/v1/fleet/drift")
	if code != http.StatusOK {
		t.Fatalf("drift: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &dv); err != nil {
		t.Fatal(err)
	}
	if len(dv.Rows) != 2 {
		t.Fatalf("drift rows = %+v, want stable+turned only (fresh has no baseline)", dv.Rows)
	}
	// Most drifted first: "turned" leads.
	if dv.Rows[0].Session != "turned" || !dv.Rows[0].Drifted {
		t.Errorf("row 0 = %+v, want turned/drifted", dv.Rows[0])
	}
	if dv.Rows[1].Session != "stable" || dv.Rows[1].Drifted {
		t.Errorf("row 1 = %+v, want stable/not drifted", dv.Rows[1])
	}
	if dv.Rows[1].Similarity != 1 {
		t.Errorf("stable similarity = %v, want 1 (identical records)", dv.Rows[1].Similarity)
	}
	if dv.Rows[0].Baseline != "history/turned/0001" {
		t.Errorf("baseline = %q", dv.Rows[0].Baseline)
	}
	if dv.Drifted != 1 {
		t.Errorf("drifted count = %d, want 1", dv.Drifted)
	}
}

// TestFleetDriftRequiresStore pins the storeless error.
func TestFleetDriftRequiresStore(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/v1/fleet/drift"); code != http.StatusNotFound {
		t.Errorf("drift without store: status %d, want 404", code)
	}
}

// TestSessionsHead pins the HEAD fast path health probes rely on.
func TestSessionsHead(t *testing.T) {
	ts := httptest.NewServer(New(online.Options{}, 1, nil).Handler())
	defer ts.Close()
	code, body := do(t, http.MethodHead, ts.URL+"/v1/sessions", nil)
	if code != http.StatusOK {
		t.Errorf("HEAD /v1/sessions: status %d", code)
	}
	if len(body) != 0 {
		t.Errorf("HEAD /v1/sessions returned a body: %q", body)
	}
}
