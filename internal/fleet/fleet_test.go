package fleet

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/online"
	"repro/internal/workload"
)

// randSeq draws a random abstracted sequence from a small alphabet, so
// collisions and partial overlaps actually occur.
func randSeq(r *rand.Rand, maxLen int) []uint64 {
	n := 1 + r.Intn(maxLen)
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(r.Intn(12))
	}
	return s
}

// randFingerprint builds a synthetic fingerprint.
func randFingerprint(r *rand.Rand, session string, streams int) *Fingerprint {
	f := &Fingerprint{Session: session, Sessions: 1, Refs: 1000}
	for i := 0; i < streams; i++ {
		seq := randSeq(r, 8)
		freq := uint64(1 + r.Intn(50))
		f.Streams = append(f.Streams, Stream{
			Seq: seq, Length: len(seq), Freq: freq,
			Weight: uint64(len(seq)) * freq, Sessions: 1,
		})
	}
	f.canonicalize()
	return f
}

// fpCache memoizes real-trace fingerprints across tests: the analysis
// pipeline is seed-deterministic, so recomputing per test only burns
// wall clock.
var fpCache = struct {
	sync.Mutex
	m map[string]*Fingerprint
}{m: map[string]*Fingerprint{}}

// sessionFingerprint analyzes one generated workload trace and
// fingerprints it — the real pipeline behind every fleet view.
func sessionFingerprint(t testing.TB, session, bench string, refs int, seed int64) *Fingerprint {
	t.Helper()
	key := fmt.Sprintf("%s/%s/%d/%d", session, bench, refs, seed)
	fpCache.Lock()
	defer fpCache.Unlock()
	if f, ok := fpCache.m[key]; ok {
		return f
	}
	b, err := workload.Generate(bench, refs, seed)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(b, core.Options{SkipPotential: true})
	f := New(session, online.SnapshotFromAnalysis(a))
	fpCache.m[key] = f
	return f
}

func TestSeqSimilarityProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randSeq(r, 10), randSeq(r, 10)
		sab, sba := SeqSimilarity(a, b), SeqSimilarity(b, a)
		if sab != sba {
			t.Fatalf("symmetry: Sim(%v,%v)=%v but Sim(%v,%v)=%v", a, b, sab, b, a, sba)
		}
		if sab < 0 || sab > 1 {
			t.Fatalf("bounds: Sim(%v,%v)=%v outside [0,1]", a, b, sab)
		}
		if got := SeqSimilarity(a, a); got != 1 {
			t.Fatalf("identity: Sim(a,a)=%v for %v", got, a)
		}
		if again := SeqSimilarity(a, b); again != sab {
			t.Fatalf("determinism: repeated Sim(%v,%v) gave %v then %v", a, b, sab, again)
		}
	}
}

func TestSeqSimilarityCases(t *testing.T) {
	cases := []struct {
		a, b []uint64
		want float64
	}{
		{nil, nil, 1},                 // equal (both empty)
		{[]uint64{1, 2, 3}, nil, 0},   // nothing shared with empty
		{[]uint64{5}, []uint64{5}, 1}, // single symbol, equal
		{[]uint64{5}, []uint64{7}, 0}, // single symbol, disjoint
		{[]uint64{1, 2, 3}, []uint64{1, 2, 3}, 1},
		{[]uint64{1, 2, 3}, []uint64{7, 8, 9}, 0},
	}
	for _, c := range cases {
		if got := SeqSimilarity(c.a, c.b); got != c.want {
			t.Errorf("Sim(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// A one-symbol insertion scores high but below 1.
	got := SeqSimilarity([]uint64{1, 2, 3, 4}, []uint64{1, 2, 9, 3, 4})
	if got <= 0.5 || got >= 1 {
		t.Errorf("insertion mutation scored %v, want in (0.5, 1)", got)
	}
}

func TestFingerprintSimilarityProperties(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := randFingerprint(r, "a", 1+r.Intn(10))
		b := randFingerprint(r, "b", 1+r.Intn(10))
		if got := Similarity(a, a); got != 1 {
			t.Fatalf("identity: Sim(a,a)=%v", got)
		}
		sab, sba := Similarity(a, b), Similarity(b, a)
		if sab != sba {
			t.Fatalf("symmetry: %v != %v", sab, sba)
		}
		if sab < 0 || sab > 1 {
			t.Fatalf("bounds: Sim=%v", sab)
		}
	}
	empty := &Fingerprint{Session: "e", Sessions: 1}
	if got := Similarity(empty, empty); got != 1 {
		t.Errorf("two empty fingerprints: Sim=%v, want 1", got)
	}
	full := randFingerprint(r, "f", 3)
	if got := Similarity(empty, full); got != 0 {
		t.Errorf("empty vs non-empty: Sim=%v, want 0", got)
	}
}

// TestSimilarityDeterministicAcrossWorkers pins the -race-checked
// property the views rely on: the pairwise matrix (and everything
// derived from it) is bit-identical at any worker count.
func TestSimilarityDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fps := make([]*Fingerprint, 12)
	for i := range fps {
		fps[i] = randFingerprint(r, string(rune('a'+i)), 2+r.Intn(8))
	}
	ref := Matrix(fps, 1)
	for _, workers := range []int{2, 4, 8} {
		got := Matrix(fps, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("matrix differs between workers=1 and workers=%d", workers)
		}
	}
	refCl := Clusters(fps, 0.3, 1)
	for _, workers := range []int{2, 4, 8} {
		if got := Clusters(fps, 0.3, workers); !reflect.DeepEqual(got, refCl) {
			t.Fatalf("clusters differ between workers=1 and workers=%d", workers)
		}
	}
}

func TestMergeOrderInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	fps := make([]*Fingerprint, 6)
	for i := range fps {
		fps[i] = randFingerprint(r, string(rune('a'+i)), 5)
	}
	ref := Merge(fps...)
	perm := []*Fingerprint{fps[3], fps[5], fps[0], fps[4], fps[2], fps[1]}
	if got := Merge(perm...); !reflect.DeepEqual(got, ref) {
		t.Error("Merge is order-sensitive")
	}
	// Associativity: merging a merge equals merging flat.
	left := Merge(Merge(fps[0], fps[1], fps[2]), Merge(fps[3], fps[4], fps[5]))
	left.Session = ref.Session
	if !reflect.DeepEqual(left, ref) {
		t.Error("Merge of merges differs from flat merge")
	}
	if ref.Sessions != 6 {
		t.Errorf("merged provenance %d sessions, want 6", ref.Sessions)
	}
}

func TestMergeAccumulates(t *testing.T) {
	a := &Fingerprint{Session: "a", Sessions: 1, Refs: 100, Streams: []Stream{
		{Seq: []uint64{1, 2}, Length: 2, Freq: 10, Weight: 20, Sessions: 1},
		{Seq: []uint64{3, 4}, Length: 2, Freq: 5, Weight: 10, Sessions: 1},
	}}
	a.canonicalize()
	b := &Fingerprint{Session: "b", Sessions: 1, Refs: 50, Streams: []Stream{
		{Seq: []uint64{1, 2}, Length: 2, Freq: 7, Weight: 14, Sessions: 1},
	}}
	b.canonicalize()
	m := Merge(a, b)
	if m.Refs != 150 || m.Sessions != 2 || len(m.Streams) != 2 {
		t.Fatalf("merge headline: %+v", m)
	}
	if m.Streams[0].Weight != 34 || m.Streams[0].Freq != 17 || m.Streams[0].Sessions != 2 {
		t.Errorf("shared stream did not accumulate: %+v", m.Streams[0])
	}
	if m.Streams[1].Weight != 10 || m.Streams[1].Sessions != 1 {
		t.Errorf("unshared stream changed: %+v", m.Streams[1])
	}
}

// TestViewOrderingDeterministic is the regression test for the merged
// fleet-view ordering: weight descending, then stream key ascending —
// matching the sorted /v1/sessions precedent from the sharded gateway.
func TestViewOrderingDeterministic(t *testing.T) {
	mk := func(seq []uint64, w uint64) Stream {
		return Stream{Seq: seq, Length: len(seq), Freq: w / uint64(len(seq)), Weight: w, Sessions: 1}
	}
	f := &Fingerprint{Session: "s", Sessions: 1, Streams: []Stream{
		mk([]uint64{9}, 5),
		mk([]uint64{1, 2}, 40),
		mk([]uint64{0, 7}, 40), // same weight as {1,2}: key breaks the tie
		mk([]uint64{4}, 80),
	}}
	f.canonicalize()
	v := TopStreams([]*Fingerprint{f}, 0)
	var got [][]uint64
	for _, s := range v.Streams {
		got = append(got, s.Seq)
	}
	want := [][]uint64{{4}, {0, 7}, {1, 2}, {9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("view order %v, want %v", got, want)
	}
	if v.TotalWeight != 165 || v.TotalStreams != 4 {
		t.Errorf("view totals: %+v", v)
	}
	// Top-K clips after ordering.
	if top := TopStreams([]*Fingerprint{f}, 2); len(top.Streams) != 2 || top.Streams[0].Weight != 80 {
		t.Errorf("top-2 clip wrong: %+v", top.Streams)
	}
}

func TestFingerprintJSONRoundTrip(t *testing.T) {
	fp := sessionFingerprint(t, "rt", "boxsim", 4_000, 1)
	b, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	var back Fingerprint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, fp) {
		t.Error("fingerprint JSON round trip not exact")
	}
	if Similarity(fp, &back) != 1 {
		t.Error("round-tripped fingerprint no longer identical to itself")
	}
}

// TestFingerprintOrderInsensitive: the same snapshot with its stream
// list permuted canonicalizes to the same fingerprint.
func TestFingerprintOrderInsensitive(t *testing.T) {
	b, err := workload.Generate("boxsim", 4_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(b, core.Options{SkipPotential: true})
	snap := online.SnapshotFromAnalysis(a)
	ref := New("s", snap)
	perm := *snap
	perm.HotStreams.Streams = append([]online.StreamStat(nil), snap.HotStreams.Streams...)
	r := rand.New(rand.NewSource(5))
	r.Shuffle(len(perm.HotStreams.Streams), func(i, j int) {
		perm.HotStreams.Streams[i], perm.HotStreams.Streams[j] = perm.HotStreams.Streams[j], perm.HotStreams.Streams[i]
	})
	if got := New("s", &perm); !reflect.DeepEqual(got, ref) {
		t.Error("fingerprint depends on snapshot stream order")
	}
}

func TestParseParams(t *testing.T) {
	if n, err := ParseTop(""); err != nil || n != DefaultTop {
		t.Errorf("ParseTop(\"\") = %d, %v", n, err)
	}
	if n, err := ParseTop("0"); err != nil || n != 0 {
		t.Errorf("ParseTop(0) = %d, %v", n, err)
	}
	if _, err := ParseTop("-3"); err == nil {
		t.Error("ParseTop(-3) accepted")
	}
	if v, err := ParseThreshold("", 0.5); err != nil || v != 0.5 {
		t.Errorf("ParseThreshold default = %v, %v", v, err)
	}
	if v, err := ParseThreshold("0.25", 0.5); err != nil || v != 0.25 {
		t.Errorf("ParseThreshold(0.25) = %v, %v", v, err)
	}
	for _, bad := range []string{"1.5", "-0.1", "x", "NaN", "nan", "+Inf"} {
		if _, err := ParseThreshold(bad, 0.5); err == nil {
			t.Errorf("ParseThreshold(%q) accepted", bad)
		}
	}
}

func TestDriftView(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	live := randFingerprint(r, "s1", 6)
	base := randFingerprint(r, "s1", 6)
	row := CompareDrift(live, base, "history/s1/0001", 0.99)
	if row.Session != "s1" || row.Baseline != "history/s1/0001" {
		t.Fatalf("row identity: %+v", row)
	}
	same := CompareDrift(live, live, "history/s1/0002", 0.9)
	if same.Similarity != 1 || same.Drifted {
		t.Errorf("self-drift row: %+v", same)
	}
	v := BuildDriftView([]DriftRow{same, row}, 0.99)
	if len(v.Rows) != 2 || v.Rows[0].Session != "s1" || v.Rows[0].Similarity > v.Rows[1].Similarity {
		t.Errorf("drift rows not sorted most-drifted first: %+v", v.Rows)
	}
	if row.Similarity < 0.99 && v.Drifted != 1 {
		t.Errorf("drifted count %d", v.Drifted)
	}
}

func TestClustersThresholdAndTies(t *testing.T) {
	// Two identical pairs and one outlier: at any threshold <= 1 the
	// pairs merge; the outlier stays alone below threshold.
	mk := func(name string, seqs ...[]uint64) *Fingerprint {
		f := &Fingerprint{Session: name, Sessions: 1}
		for _, s := range seqs {
			f.Streams = append(f.Streams, Stream{Seq: s, Length: len(s), Freq: 10, Weight: uint64(len(s)) * 10, Sessions: 1})
		}
		f.canonicalize()
		return f
	}
	a1 := mk("a1", []uint64{1, 2, 3}, []uint64{4, 5})
	a2 := mk("a2", []uint64{1, 2, 3}, []uint64{4, 5})
	b1 := mk("b1", []uint64{100, 101, 102, 103})
	b2 := mk("b2", []uint64{100, 101, 102, 103})
	out := mk("zz", []uint64{7, 8, 9, 10, 11})

	cl := Clusters([]*Fingerprint{out, b2, a1, b1, a2}, 0.9, 2)
	if len(cl) != 3 {
		t.Fatalf("got %d clusters: %+v", len(cl), cl)
	}
	byID := map[string][]string{}
	for _, c := range cl {
		byID[c.ID] = c.Sessions
	}
	if !reflect.DeepEqual(byID["a1"], []string{"a1", "a2"}) ||
		!reflect.DeepEqual(byID["b1"], []string{"b1", "b2"}) ||
		!reflect.DeepEqual(byID["zz"], []string{"zz"}) {
		t.Errorf("cluster membership: %+v", byID)
	}
	// Threshold 0: everything merges into one cluster.
	all := Clusters([]*Fingerprint{a1, a2, b1, b2, out}, 0, 1)
	if len(all) != 1 || all[0].Size != 5 {
		t.Errorf("threshold 0: %+v", all)
	}
	// Input permutation does not change assignments.
	ref := Clusters([]*Fingerprint{a1, a2, b1, b2, out}, 0.9, 1)
	perm := Clusters([]*Fingerprint{b1, out, a2, a1, b2}, 0.9, 3)
	if !reflect.DeepEqual(ref, perm) {
		t.Error("cluster assignments depend on input order")
	}
}

// TestRealTraceSelfSimilarity sanity-checks the metric on real
// pipeline output: a session is identical to itself, near-identical to
// a truncated run of the same workload, and far from a different
// workload family.
func TestRealTraceSelfSimilarity(t *testing.T) {
	if testing.Short() {
		t.Skip("analysis pipeline in -short")
	}
	boxA := sessionFingerprint(t, "box0", "boxsim", 4_000, 1)
	boxB := sessionFingerprint(t, "box1", "boxsim", 4_000, 2)
	db := sessionFingerprint(t, "db0", "sqlserver", 4_000, 1)

	if got := Similarity(boxA, boxA); got != 1 {
		t.Errorf("self similarity %v", got)
	}
	same := Similarity(boxA, boxB)
	cross := Similarity(boxA, db)
	if same <= cross {
		t.Errorf("same-family sim %v not above cross-family %v", same, cross)
	}
	t.Logf("boxsim/boxsim = %.3f, boxsim/sqlserver = %.3f", same, cross)
}
