package serve

import (
	"encoding/json"
	"net/url"
	"testing"

	"repro/internal/fleet"
	"repro/internal/online"
)

// fleetViewMerges returns, for every FleetView route, the merge a
// gateway runs over the shards' fingerprint listings.
func fleetViewMerges(t testing.TB) map[string]func(bodies [][]byte) (any, error) {
	t.Helper()
	out := map[string]func(bodies [][]byte) (any, error){}
	for i := range Routes {
		rt := &Routes[i]
		if rt.Class != FleetView {
			continue
		}
		_, merge, err := rt.Gather(&url.URL{Path: rt.Path}, 1)
		if err != nil {
			t.Fatalf("%s: %v", rt.Path, err)
		}
		out[rt.Path] = merge
	}
	if len(out) == 0 {
		t.Fatal("no FleetView routes")
	}
	return out
}

// shardListing is a real shard's fingerprint listing of one session.
func shardListing(t testing.TB, session string, seed int64) []byte {
	t.Helper()
	e := online.NewEngine(online.Options{})
	e.Ingest(genTrace(t, "boxsim", 400, seed).Events())
	b, err := json.Marshal(fleet.BuildFingerprintsView([]*fleet.Fingerprint{fleet.New(session, e.Snapshot())}))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeFingerprintsRejectsNull: a null entry in a shard's listing is
// a bad shard answer (an error, which the gateway answers with 502), not
// a nil fingerprint handed to the views, which dereference it.
func TestMergeFingerprintsRejectsNull(t *testing.T) {
	good := shardListing(t, "a", 1)
	for path, merge := range fleetViewMerges(t) {
		for _, bad := range []string{
			`{"sessions":2,"fingerprints":[null,{"session":"b","sessions":1,"streams":[]}]}`,
			`{"fingerprints":[null]}`,
		} {
			if view, err := merge([][]byte{good, []byte(bad)}); err == nil {
				t.Errorf("%s: merging %s gave %v, want an error", path, bad, view)
			}
		}
		if _, err := merge([][]byte{good, []byte(`{"fingerprints":[]}`)}); err != nil {
			t.Errorf("%s: a valid listing was rejected: %v", path, err)
		}
	}
}

// FuzzMergeFingerprints feeds arbitrary shard bodies through every
// FleetView route's merge and view: the result is an error or a view,
// never a panic.
func FuzzMergeFingerprints(f *testing.F) {
	f.Add(shardListing(f, "a", 1), shardListing(f, "b", 2))
	f.Add([]byte(`{"fingerprints":[null,{"session":"b"}]}`), []byte(`{}`))
	f.Add([]byte(`{"fingerprints":null}`), []byte(`{"sessions":1,"fingerprints":[{"streams":[null,{"seq":null}]}]}`))
	f.Add([]byte(`{"fingerprints":[{"session":"x","weight":18446744073709551615,"streams":[{"seq":[1,2],"weight":1}]},{"session":"y","weight":1,"streams":[{"seq":[2]}]}]}`), []byte(`[]`))
	merges := fleetViewMerges(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for path, merge := range merges {
			view, err := merge([][]byte{a, b})
			if err == nil && view == nil {
				t.Fatalf("%s: no view and no error", path)
			}
		}
	})
}
