package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// genWorkload generates a named workload family trace (genTrace is
// boxsim-only; fleet tests need two families to cluster apart).
func genWorkload(t testing.TB, bench string, refs int, seed int64) *trace.Buffer {
	t.Helper()
	b, err := workload.Generate(bench, refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newStoreOracle is a single-node locserve with its own store: the
// reference for fleet views including drift (history artifact names and
// contents are deterministic, so a separate store directory still
// yields byte-identical views).
func newStoreOracle(t *testing.T) *oracle {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(online.Options{}, 2, st).Handler())
	t.Cleanup(ts.Close)
	return &oracle{ts: ts}
}

// checkFleetEqual compares one fleet endpoint's bytes between gateway
// and oracle.
func checkFleetEqual(t *testing.T, c *testCluster, o *oracle, pathQuery string) []byte {
	t.Helper()
	code, got := get(t, c.gwTS.URL+pathQuery)
	mustOK(t, "gateway "+pathQuery, code, got)
	code, want := get(t, o.ts.URL+pathQuery)
	mustOK(t, "oracle "+pathQuery, code, want)
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from single-node oracle:\n got: %s\nwant: %s", pathQuery, got, want)
	}
	return got
}

// TestGatewayFleetEquivalence is the merge-proof as a test: sessions
// from two workload families spread over three shards, and every fleet
// view served by the gateway — fingerprints, top streams, clusters,
// drift — must be byte-identical to a single locserve holding all the
// sessions. Clustering must also recover the two families.
func TestGatewayFleetEquivalence(t *testing.T) {
	c := newTestCluster(t, "s0", "s1", "s2")
	o := newStoreOracle(t)

	type sess struct {
		name  string
		bench string
		seed  int64
	}
	var sessions []sess
	for i := 0; i < 2; i++ {
		sessions = append(sessions,
			sess{fmt.Sprintf("fa%d", i), "boxsim", int64(i + 1)},
			sess{fmt.Sprintf("fb%d", i), "sqlserver", int64(i + 1)})
	}
	owners := map[string]bool{}
	for _, s := range sessions {
		b := genWorkload(t, s.bench, 3_000, s.seed)
		ingestBoth(t, c, o, s.name, b.Events())
		owners[c.gw.ring.Owner(s.name)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("fleet sessions all landed on one shard (%v); widen the session set", owners)
	}

	var fv fleet.FingerprintsView
	body := checkFleetEqual(t, c, o, "/v1/fleet/fingerprints")
	if err := json.Unmarshal(body, &fv); err != nil {
		t.Fatal(err)
	}
	if fv.Sessions != len(sessions) {
		t.Errorf("merged fingerprints cover %d sessions, want %d", fv.Sessions, len(sessions))
	}

	checkFleetEqual(t, c, o, "/v1/fleet/streams")
	checkFleetEqual(t, c, o, "/v1/fleet/streams?top=0")

	var cv fleet.ClustersView
	body = checkFleetEqual(t, c, o, "/v1/fleet/clusters")
	if err := json.Unmarshal(body, &cv); err != nil {
		t.Fatal(err)
	}
	if len(cv.Clusters) != 2 {
		t.Fatalf("clusters = %+v, want the 2 workload families", cv.Clusters)
	}
	sizes := map[string]int{}
	for _, cl := range cv.Clusters {
		sizes[cl.ID] = cl.Size
	}
	if sizes["fa0"] != 2 || sizes["fb0"] != 2 {
		t.Errorf("cluster sizes %v, want fa0:2 fb0:2", sizes)
	}

	// Drift: close every session on both sides (persisting baselines),
	// re-ingest — half the sessions switch family, so they drift.
	for _, s := range sessions {
		code, body := post(t, c.gwTS.URL+"/v1/close?session="+s.name, nil)
		mustOK(t, "gateway close "+s.name, code, body)
		code, body = post(t, o.ts.URL+"/v1/close?session="+s.name, nil)
		mustOK(t, "oracle close "+s.name, code, body)
	}
	for _, s := range sessions {
		bench := s.bench
		if s.name[1] == 'b' {
			bench = "boxsim" // the fb* sessions turn into the other family
		}
		b := genWorkload(t, bench, 3_000, s.seed)
		ingestBoth(t, c, o, s.name, b.Events())
	}
	var dv fleet.DriftView
	body = checkFleetEqual(t, c, o, "/v1/fleet/drift")
	if err := json.Unmarshal(body, &dv); err != nil {
		t.Fatal(err)
	}
	if len(dv.Rows) != len(sessions) {
		t.Errorf("drift rows = %d, want %d", len(dv.Rows), len(sessions))
	}
	if dv.Drifted != 2 {
		t.Errorf("drifted = %d, want the 2 family-switched sessions: %+v", dv.Drifted, dv.Rows)
	}
	for _, row := range dv.Rows {
		if want := row.Session[1] == 'b'; row.Drifted != want {
			t.Errorf("session %s drifted=%v, want %v (sim %.3f)", row.Session, row.Drifted, want, row.Similarity)
		}
	}

	// Shared parameter validation: the gateway rejects before fanning out.
	if code, _ := get(t, c.gwTS.URL+"/v1/fleet/streams?top=x"); code != http.StatusBadRequest {
		t.Errorf("bad top: status %d, want 400", code)
	}
	for _, q := range []string{"/v1/fleet/clusters?threshold=2", "/v1/fleet/clusters?threshold=NaN", "/v1/fleet/drift?threshold=NaN"} {
		if code, _ := get(t, c.gwTS.URL+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

// TestGatewayShardHealth covers the probe cycle: healthy shards stay
// flagged healthy, a dead shard is marked unhealthy with its error and
// probe time, and membership never changes on its own.
func TestGatewayShardHealth(t *testing.T) {
	c := newTestCluster(t, "s0", "s1")

	// Never probed: listed healthy with no probe timestamp.
	for _, si := range c.gw.Shards() {
		if !si.Healthy || si.LastProbe != "" || si.LastError != "" {
			t.Errorf("unprobed shard %s = %+v, want healthy/blank", si.Name, si)
		}
	}

	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if n := c.gw.ProbeShards(now); n != 0 {
		t.Fatalf("probe of healthy cluster found %d unhealthy", n)
	}
	for _, si := range c.gw.Shards() {
		if !si.Healthy || si.LastError != "" {
			t.Errorf("healthy shard %s = %+v", si.Name, si)
		}
		if si.LastProbe != now.Format(time.RFC3339Nano) {
			t.Errorf("shard %s lastProbe = %q", si.Name, si.LastProbe)
		}
	}

	// Kill s1's process; the probe flags it but does not evict it.
	c.shards["s1"].ts.Close()
	if n := c.gw.ProbeShards(now.Add(time.Minute)); n != 1 {
		t.Fatalf("probe found %d unhealthy shards, want 1", n)
	}
	var shards struct {
		Shards []ShardInfo `json:"shards"`
	}
	code, body := get(t, c.gwTS.URL+"/v1/shards")
	mustOK(t, "shards", code, body)
	if err := json.Unmarshal(body, &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards.Shards) != 2 {
		t.Fatalf("unhealthy shard was evicted: %+v", shards.Shards)
	}
	for _, si := range shards.Shards {
		switch si.Name {
		case "s0":
			if !si.Healthy || si.LastError != "" {
				t.Errorf("s0 = %+v, want healthy", si)
			}
		case "s1":
			if si.Healthy || si.LastError == "" || si.LastProbe == "" {
				t.Errorf("s1 = %+v, want unhealthy with error and timestamp", si)
			}
		}
	}

	// Removing the dead shard clears its health entry.
	c.removeShard("s1")
	c.gw.healthMu.Lock()
	_, lingering := c.gw.health["s1"]
	c.gw.healthMu.Unlock()
	if lingering {
		t.Error("health entry for removed shard not cleared")
	}
}

// TestGatewayHealthProber runs the background prober against a live
// cluster and waits for it to stamp a probe.
func TestGatewayHealthProber(t *testing.T) {
	c := newTestCluster(t, "s0")
	stop := c.gw.StartHealthProbes(2 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if si := c.gw.Shards(); len(si) == 1 && si[0].LastProbe != "" {
			if !si[0].Healthy {
				t.Fatalf("live shard probed unhealthy: %+v", si[0])
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("prober never stamped a probe")
}
