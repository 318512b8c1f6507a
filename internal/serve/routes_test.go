package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/url"
	"reflect"
	"slices"
	"strings"
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

// shardListing is a real shard's fingerprint listing of one session, in
// the gather form a gateway asks shards for.
func shardListing(t testing.TB, session string, seed int64) []byte {
	t.Helper()
	e := online.NewEngine(online.Options{})
	e.Ingest(genTrace(t, "boxsim", 400, seed).Events())
	return encodeListing(t, fleet.BuildFingerprintsView([]*fleet.Fingerprint{fleet.New(session, e.Snapshot())}))
}

// encodeListing is v in the gather form.
func encodeListing(t testing.TB, v fleet.FingerprintsView) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fleet.EncodeFingerprints(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeFingerprintsRejectsNull: a JSON listing, null entry or not,
// is a bad shard answer (an error, which the gateway answers with 502),
// not a nil fingerprint handed to the views, which dereference it; the
// gather form cannot express a null fingerprint.
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
		if _, err := merge([][]byte{good, encodeListing(t, fleet.BuildFingerprintsView(nil))}); err != nil {
			t.Errorf("%s: a valid listing was rejected: %v", path, err)
		}
	}
}

// TestGatherRejectsMalformed: a gather body cut short, one with a
// trailing byte and one whose stream count exceeds its length are each
// an error from every FleetView merge, and the error names the shard.
func TestGatherRejectsMalformed(t *testing.T) {
	good := shardListing(t, "a", 1)
	for name, bad := range map[string][]byte{
		"truncated":      good[:len(good)-1],
		"trailing byte":  append(slices.Clip(good), 0),
		"stream count":   overlongStreamCount(),
		"empty":          nil,
		"magic only":     good[:4],
		"sessions > int": append(slices.Clip(good[:4]), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
	} {
		for path, merge := range fleetViewMerges(t) {
			_, err := merge([][]byte{good, bad})
			if err == nil || !strings.HasPrefix(err.Error(), "shard answer 2 of 2: fleet: fingerprint listing") {
				t.Errorf("%s: %s body: err = %v", path, name, err)
			}
		}
	}
}

// overlongStreamCount is a gather body whose one fingerprint claims more
// streams than the body has bytes.
func overlongStreamCount() []byte {
	b := []byte("FPG1\x01\x01\x01x\x01\x00\x00")
	return binary.AppendUvarint(b, 1<<20)
}

// FuzzMergeFingerprints feeds arbitrary shard bodies through every
// FleetView route's merge and view: the result is an error or a view,
// never a panic. A body that decodes re-encodes to a body that decodes
// to the same listing.
func FuzzMergeFingerprints(f *testing.F) {
	a, b := shardListing(f, "a", 1), shardListing(f, "b", 2)
	f.Add(a, b)
	f.Add(a[:len(a)/2], append(slices.Clip(b), 0))
	f.Add(overlongStreamCount(), encodeListing(f, fleet.BuildFingerprintsView([]*fleet.Fingerprint{
		{Session: "x", Sessions: 1, Refs: 7, Weight: math.MaxUint64, Streams: []fleet.Stream{
			{Seq: []uint64{1, 256, 1 << 56}, Length: 3, Freq: 1, Weight: math.MaxUint64, Sessions: 1},
		}},
	})))
	f.Add([]byte(`{"fingerprints":[null,{"session":"b"}]}`), []byte(`{}`))
	merges := fleetViewMerges(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for path, merge := range merges {
			view, err := merge([][]byte{a, b})
			if err == nil && view == nil {
				t.Fatalf("%s: no view and no error", path)
			}
		}
		for _, body := range [][]byte{a, b} {
			v, err := fleet.DecodeFingerprints(body)
			if err != nil {
				continue
			}
			back, err := fleet.DecodeFingerprints(encodeListing(t, v))
			if err != nil {
				t.Fatalf("re-encoded listing does not decode: %v", err)
			}
			if !reflect.DeepEqual(back, v) {
				t.Fatalf("round trip changed the listing:\n got %+v\nwant %+v", back, v)
			}
		}
	})
}
