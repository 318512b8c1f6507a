package fleet

import (
	"fmt"
	"sort"
	"strconv"
)

// View defaults: one definition shared by locserve, locgate, and
// locfleet, so the same query parses to the same computation everywhere
// — a precondition for the gateway's merged views being byte-identical
// to a single node's.
const (
	// DefaultTop bounds the merged top-stream listing.
	DefaultTop = 20
	// DefaultClusterThreshold is the minimum linkage for a cluster
	// merge.
	DefaultClusterThreshold = 0.5
	// DefaultDriftThreshold marks a session drifted when its live
	// fingerprint scores below this against its last persisted one.
	DefaultDriftThreshold = 0.9
)

// ParseTop parses a top-K query value ("" selects DefaultTop; 0 means
// unlimited).
func ParseTop(s string) (int, error) {
	if s == "" {
		return DefaultTop, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad top %q: want a non-negative integer", s)
	}
	return n, nil
}

// ParseThreshold parses a similarity-threshold query value in [0, 1]
// ("" selects def).
func ParseThreshold(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("bad threshold %q: want a number in [0, 1]", s)
	}
	return v, nil
}

// FingerprintsView is the raw per-session fingerprint listing: the wire
// format shards serve and the gateway merges before computing views.
// Clustering is not per-session decomposable, so the gateway pulls
// these and runs the same view functions over exactly the inputs a
// single node would use — that is what makes its merged views
// byte-identical.
type FingerprintsView struct {
	Sessions     int            `json:"sessions"`
	Fingerprints []*Fingerprint `json:"fingerprints"`
}

// BuildFingerprintsView assembles the listing in canonical (session
// name) order; both the shard and the gateway build their responses
// through it.
func BuildFingerprintsView(fps []*Fingerprint) FingerprintsView {
	fps = append([]*Fingerprint(nil), fps...)
	sort.Slice(fps, func(i, j int) bool { return fps[i].Session < fps[j].Session })
	if fps == nil {
		fps = []*Fingerprint{}
	}
	return FingerprintsView{Sessions: len(fps), Fingerprints: fps}
}

// StreamsView is the "top streams across all sessions" view: the
// weight-merged, provenance-counted stream set.
type StreamsView struct {
	// Sessions counts contributing sessions; Refs and TotalWeight sum
	// over them.
	Sessions    int    `json:"sessions"`
	Refs        uint64 `json:"refs"`
	TotalWeight uint64 `json:"totalWeight"`
	// TotalStreams is the merged set size before the top-K clip.
	TotalStreams int `json:"totalStreams"`
	// Streams is the top of the merged set: weight descending, then
	// sequence key ascending (deterministic — the regression-tested
	// ordering every merged fleet view follows).
	Streams []Stream `json:"streams"`
}

// TopStreams merges the fingerprints and returns the top view. top <= 0
// keeps every merged stream.
func TopStreams(fps []*Fingerprint, top int) StreamsView {
	m := Merge(fps...)
	v := StreamsView{
		Sessions:     m.Sessions,
		Refs:         m.Refs,
		TotalWeight:  m.Weight,
		TotalStreams: len(m.Streams),
		Streams:      m.Streams,
	}
	if top > 0 && len(v.Streams) > top {
		v.Streams = v.Streams[:top]
	}
	if v.Streams == nil {
		v.Streams = []Stream{} // keep the JSON an array, never null
	}
	return v
}

// ClustersView is the session-clustering view.
type ClustersView struct {
	Threshold float64   `json:"threshold"`
	Sessions  int       `json:"sessions"`
	Clusters  []Cluster `json:"clusters"`
}

// ClusterView clusters the fingerprints at the threshold.
func ClusterView(fps []*Fingerprint, threshold float64, workers int) ClustersView {
	cl := Clusters(fps, threshold, workers)
	if cl == nil {
		cl = []Cluster{}
	}
	return ClustersView{Threshold: threshold, Sessions: len(fps), Clusters: cl}
}

// DriftRow is one session's live-vs-baseline comparison.
type DriftRow struct {
	Session string `json:"session"`
	// Baseline names the persisted artifact the live fingerprint was
	// compared against (a history/S/NNNN store artifact).
	Baseline string `json:"baseline"`
	// Similarity is Similarity(live, baseline).
	Similarity float64 `json:"similarity"`
	// Drifted is Similarity < threshold.
	Drifted bool `json:"drifted"`
	// Stream population on each side, for a quick read of what moved.
	LiveStreams     int `json:"liveStreams"`
	BaselineStreams int `json:"baselineStreams"`
}

// DriftView is the "sessions whose locality profile shifted" view.
type DriftView struct {
	Threshold float64 `json:"threshold"`
	// Drifted counts rows below the threshold.
	Drifted int `json:"drifted"`
	// Rows lists compared sessions, most drifted first (similarity
	// ascending, then session name — deterministic).
	Rows []DriftRow `json:"rows"`
}

// SortDriftRows orders rows most-drifted first with deterministic
// tie-breaking; the gateway re-sorts merged per-shard rows through the
// same comparator the single node used.
func SortDriftRows(rows []DriftRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Similarity != rows[j].Similarity {
			return rows[i].Similarity < rows[j].Similarity
		}
		return rows[i].Session < rows[j].Session
	})
}

// BuildDriftView assembles the view from comparison rows.
func BuildDriftView(rows []DriftRow, threshold float64) DriftView {
	SortDriftRows(rows)
	v := DriftView{Threshold: threshold, Rows: rows}
	if v.Rows == nil {
		v.Rows = []DriftRow{}
	}
	for _, r := range v.Rows {
		if r.Drifted {
			v.Drifted++
		}
	}
	return v
}

// CompareDrift builds one drift row from a session's live fingerprint
// and its persisted baseline.
func CompareDrift(live, baseline *Fingerprint, artifact string, threshold float64) DriftRow {
	sim := Similarity(live, baseline)
	return DriftRow{
		Session:         live.Session,
		Baseline:        artifact,
		Similarity:      sim,
		Drifted:         sim < threshold,
		LiveStreams:     len(live.Streams),
		BaselineStreams: len(baseline.Streams),
	}
}
