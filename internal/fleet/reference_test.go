package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/parallel"
)

// seqSimilarityReference is the SeqSimilarity this package shipped
// before it prepared per-stream features: every call re-keys both
// sequences, builds a bigram map and allocates two LCS rows. It is kept
// unchanged, with lcsReference and bigramJaccardReference, as the
// differential oracle the current kernel must agree with bit for bit.
func seqSimilarityReference(a, b []uint64) float64 {
	if seqEqualReference(a, b) {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	lcsNorm := 2 * float64(lcsReference(a, b)) / float64(len(a)+len(b))
	return (lcsNorm + bigramJaccardReference(a, b)) / 2
}

func seqEqualReference(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lcsReference is the longest-common-subsequence length, two-row dynamic
// programming. Hot streams are short (bounded by the analysis's
// MaxStreamLen), so the quadratic cost is small and allocation-light.
func lcsReference(a, b []uint64) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// bigramJaccardReference is the Jaccard index of the two sequences' adjacent-pair
// sets. Sequences too short to have bigrams fall back to single-symbol
// set overlap, so length-1 streams still compare meaningfully.
func bigramJaccardReference(a, b []uint64) float64 {
	if len(a) < 2 && len(b) < 2 {
		if len(a) == 1 && len(b) == 1 && a[0] == b[0] {
			return 1
		}
		return 0
	}
	set := make(map[bigram]uint8, len(a)+len(b))
	for i := 1; i < len(a); i++ {
		set[bigram{a[i-1], a[i]}] |= 1
	}
	for i := 1; i < len(b); i++ {
		set[bigram{b[i-1], b[i]}] |= 2
	}
	both := 0
	for _, m := range set {
		if m == 3 {
			both++
		}
	}
	if len(set) == 0 {
		return 0
	}
	return float64(both) / float64(len(set))
}

// similarityReference is the Similarity this package shipped before
// it prepared each fingerprint's features once per call and pruned
// pairs that cannot win: bestMatchWeightReference re-keys b's streams
// per fingerprint pair and scores every unmatched stream pair. It is
// kept unchanged as the oracle for Similarity and Matrix.
func similarityReference(a, b *Fingerprint) float64 {
	if a.Weight == 0 && b.Weight == 0 {
		return 1 // two empty profiles are trivially alike
	}
	if a.Weight == 0 || b.Weight == 0 {
		return 0
	}
	return (bestMatchWeightReference(a, b) + bestMatchWeightReference(b, a)) /
		float64(a.Weight+b.Weight)
}

// bestMatchWeightReference is Σ over a's streams of weight times the best match
// in b. Exact sequence matches short-circuit through b's key set; only
// unmatched streams pay the pairwise fuzzy scan.
func bestMatchWeightReference(a, b *Fingerprint) float64 {
	exact := make(map[string]struct{}, len(b.Streams))
	for _, y := range b.Streams {
		exact[Key(y.Seq)] = struct{}{}
	}
	var sum float64
	for _, x := range a.Streams {
		if _, ok := exact[Key(x.Seq)]; ok {
			sum += float64(x.Weight)
			continue
		}
		best := 0.0
		for _, y := range b.Streams {
			if s := seqSimilarityReference(x.Seq, y.Seq); s > best {
				best = s
			}
		}
		sum += float64(x.Weight) * best
	}
	return sum
}

// edgeFingerprint builds a random fingerprint whose streams include the
// shapes the kernel special-cases: empty and length-1 sequences, and
// zero weights. Some fingerprints have no streams, or only zero-weight
// ones.
func edgeFingerprint(r *rand.Rand, session string) *Fingerprint {
	f := &Fingerprint{Session: session, Sessions: 1, Refs: 1000}
	for i, n := 0, r.Intn(9); i < n; i++ {
		seq := make([]uint64, r.Intn(7))
		for j := range seq {
			seq[j] = uint64(r.Intn(6))
		}
		w := uint64(r.Intn(20))
		if r.Intn(4) == 0 {
			w = 0
		}
		f.Streams = append(f.Streams, Stream{Seq: seq, Length: len(seq), Weight: w, Sessions: 1})
	}
	f.canonicalize()
	return f
}

// referenceMatrix is the pairwise matrix through similarityReference,
// cells spread over the worker pool. The oracle allocates a map per
// stream pair but keeps almost nothing live, so the collector is
// slowed down while it runs: on the golden fleet that cuts its time by
// about a third.
func referenceMatrix(fps []*Fingerprint) [][]float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	n := len(fps)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	_ = parallel.ForEach(parallel.Workers(0), n*n, func(c int) error {
		if i, j := c/n, c%n; i < j {
			m[i][j] = similarityReference(fps[i], fps[j])
			m[j][i] = m[i][j]
		} else if i == j {
			m[i][i] = 1
		}
		return nil
	})
	return m
}

// TestMatrixMatchesReference requires every Matrix cell, at one and at
// four workers, and every Similarity, to carry the same bits as the
// reference. The golden fleet's oracle is sequential test code that
// takes ~30 s plain and over 4 minutes under the race detector, so it
// runs in the plain pass only, one session row per parallel subtest
// (goldenRows); under -race the golden fleet's Matrix at four workers
// is held to its Matrix at one worker instead.
func TestMatrixMatchesReference(t *testing.T) {
	type fleet struct {
		fps  []*Fingerprint
		want [][]float64
	}
	fleets := map[string]fleet{}
	add := func(name string, fps []*Fingerprint) {
		fleets[name] = fleet{fps, referenceMatrix(fps)}
	}
	add("bench32x32", benchFleet(32, 32))
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 4; k++ {
		fps := make([]*Fingerprint, 10)
		for i := range fps {
			fps[i] = edgeFingerprint(r, string(rune('a'+i)))
		}
		add("edge"+string(rune('0'+k)), fps)
	}
	if !testing.Short() {
		golden := []*Fingerprint{
			sessionFingerprint(t, "box0", "boxsim", 4_000, 1),
			sessionFingerprint(t, "box1", "boxsim", 4_000, 2),
			sessionFingerprint(t, "box2", "boxsim", 4_000, 3),
			sessionFingerprint(t, "db0", "sqlserver", 4_000, 1),
			sessionFingerprint(t, "db1", "sqlserver", 4_000, 2),
			sessionFingerprint(t, "db2", "sqlserver", 4_000, 3),
		}
		if raceEnabled {
			// The oracle is too slow instrumented; the sequential Matrix
			// stands in for it, so the race pass still requires four
			// workers, which prune the most on this fleet, to match one
			// bit for bit.
			fleets["golden"] = fleet{golden, Matrix(golden, 1)}
		} else {
			// TestRealTraceSelfSimilarity's box0, box1 and db0 are golden
			// sessions 0, 1 and 3: their reference cells are checked
			// against the trio's own matrices too.
			defer debug.SetGCPercent(debug.SetGCPercent(800))
			t.Run("golden", func(t *testing.T) { goldenRows(t, golden, []int{0, 1, 3}) })
		}
	}
	for name, f := range fleets {
		for _, workers := range []int{1, 4} {
			got := Matrix(f.fps, workers)
			for i := range f.want {
				for j := range f.want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(f.want[i][j]) {
						t.Fatalf("%s workers=%d: cell [%d][%d] = %v, reference %v", name, workers, i, j, got[i][j], f.want[i][j])
					}
				}
			}
		}
		for i := range f.fps {
			for j := range f.fps {
				if got := Similarity(f.fps[i], f.fps[j]); math.Float64bits(got) != math.Float64bits(f.want[i][j]) {
					t.Fatalf("%s: Similarity(%d, %d) = %v, reference %v", name, i, j, got, f.want[i][j])
				}
			}
		}
	}
}

// goldenRows checks the cells TestMatrixMatchesReference checks for the
// golden fleet, and for its sub-fleet trio, one session row per
// parallel subtest, so the oracle's cells spread over the CPUs: row i
// computes the reference cell [i][j] for every j > i and holds to it
// both mirrored cells of Matrix at one and four workers and Similarity
// in both orders, and the diagonal to 1. Every cell of both fleets is
// checked once, against the same reference.
func goldenRows(t *testing.T, golden []*Fingerprint, trio []int) {
	got := map[int][][]float64{1: Matrix(golden, 1), 4: Matrix(golden, 4)}
	trioFps := make([]*Fingerprint, len(trio))
	inTrio := make([]int, len(golden))
	for i := range inTrio {
		inTrio[i] = -1
	}
	for k, gi := range trio {
		trioFps[k], inTrio[gi] = golden[gi], k
	}
	trioGot := map[int][][]float64{1: Matrix(trioFps, 1), 4: Matrix(trioFps, 4)}
	for i := range golden {
		t.Run(golden[i].Session, func(t *testing.T) {
			t.Parallel()
			check := func(j int, want float64) {
				for _, workers := range []int{1, 4} {
					for _, c := range [][2]int{{i, j}, {j, i}} {
						if cell := got[workers][c[0]][c[1]]; math.Float64bits(cell) != math.Float64bits(want) {
							t.Fatalf("golden workers=%d: cell [%d][%d] = %v, reference %v", workers, c[0], c[1], cell, want)
						}
						if a, b := inTrio[c[0]], inTrio[c[1]]; a >= 0 && b >= 0 {
							if cell := trioGot[workers][a][b]; math.Float64bits(cell) != math.Float64bits(want) {
								t.Fatalf("selfSimilarityTrio workers=%d: cell [%d][%d] = %v, reference %v", workers, a, b, cell, want)
							}
						}
					}
				}
				for _, c := range [][2]int{{i, j}, {j, i}} {
					if s := Similarity(golden[c[0]], golden[c[1]]); math.Float64bits(s) != math.Float64bits(want) {
						t.Fatalf("golden: Similarity(%d, %d) = %v, reference %v", c[0], c[1], s, want)
					}
				}
			}
			check(i, 1)
			for j := i + 1; j < len(golden); j++ {
				check(j, similarityReference(golden[i], golden[j]))
			}
		})
	}
}

// checkSeqSimilarity asserts the kernel's contract on one pair: bit
// equality with the reference, an upper bound that is no lower than the
// score, and a score of 0 for unequal streams that share no symbol.
func checkSeqSimilarity(t *testing.T, a, b []uint64) {
	t.Helper()
	got, want := SeqSimilarity(a, b), seqSimilarityReference(a, b)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SeqSimilarity(%v, %v) = %v, reference %v", a, b, got, want)
	}
	f := prepare([][]uint64{a, b})
	if f[0].key == f[1].key {
		return
	}
	if ub := upperBound(&f[0], &f[1]); !(ub >= got) {
		t.Fatalf("upperBound(%v, %v) = %v below score %v", a, b, ub, got)
	}
	if !shareSymbol(f[0].syms, f[1].syms) && got != 0 {
		t.Fatalf("disjoint %v, %v scored %v", a, b, got)
	}
}

func TestSeqSimilarityMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		a, b := randSeq(r, 10), randSeq(r, 10)
		checkSeqSimilarity(t, a[:r.Intn(len(a)+1)], b)
	}
	checkSeqSimilarity(t, nil, nil)
	checkSeqSimilarity(t, nil, []uint64{1})
	checkSeqSimilarity(t, []uint64{3}, []uint64{4})
	checkSeqSimilarity(t, []uint64{3, 3, 3}, []uint64{3, 3})
}

// FuzzSeqSimilarity checks SeqSimilarity against the reference, and the
// pruning facts the fingerprint scan relies on, on arbitrary pairs of
// short sequences. Each byte is one symbol, folded into an alphabet of
// eight so overlaps are common.
func FuzzSeqSimilarity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{1, 2, 9, 3, 4})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{5}, []byte{5})
	f.Add([]byte{1, 1, 1, 2}, []byte{2, 1, 1})
	f.Add([]byte{1, 2}, []byte{3, 4, 5})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		if len(x) > 64 || len(y) > 64 {
			return
		}
		decode := func(b []byte) []uint64 {
			s := make([]uint64, len(b))
			for i, c := range b {
				s[i] = uint64(c % 8)
			}
			return s
		}
		checkSeqSimilarity(t, decode(x), decode(y))
	})
}

// TestPairKernelAllocs pins that comparing prepared features allocates
// nothing once a worker's LCS rows have grown: the per-pair maps and
// rows the reference allocated are gone.
func TestPairKernelAllocs(t *testing.T) {
	fps := benchFleet(2, 64)
	a, b := newFeatures(fps[0]), newFeatures(fps[1])
	var sc scratch
	similarity(a, b, &sc)
	if n := testing.AllocsPerRun(20, func() { similarity(a, b, &sc) }); n != 0 {
		t.Errorf("similarity over prepared features: %v allocs per call, want 0", n)
	}
	x, y := &a.streams[0], &b.streams[1]
	if n := testing.AllocsPerRun(20, func() { sc.seqSim(x, y) }); n != 0 {
		t.Errorf("seqSim over prepared features: %v allocs per call, want 0", n)
	}
}

// Key renders the abstracted sequence for set comparison (8 bytes per
// symbol, the internal/regress technique). It, canonicalizeReference
// and mergeReference are the fingerprint order and merge this package
// shipped before it compared sequences in place and merged through a
// hashed table, kept unchanged as the oracle for both.
func Key(seq []uint64) string {
	return string(appendKey(make([]byte, 0, len(seq)*8), seq))
}

// canonicalizeReference sorts streams into the canonical order and recomputes
// the total weight.
func canonicalizeReference(f *Fingerprint) {
	sort.Slice(f.Streams, func(i, j int) bool {
		if f.Streams[i].Weight != f.Streams[j].Weight {
			return f.Streams[i].Weight > f.Streams[j].Weight
		}
		return Key(f.Streams[i].Seq) < Key(f.Streams[j].Seq)
	})
	f.Weight = 0
	for _, s := range f.Streams {
		f.Weight += s.Weight
	}
}

// mergeReference unions fingerprints into one fleet-wide fingerprint: streams
// match by exact abstracted sequence, weights and occurrence counts
// sum, and Sessions counts provenance. Merging is commutative and
// associative — the result is independent of argument order — because
// stream accumulation is integer addition and the output is
// canonicalized.
func mergeReference(fps ...*Fingerprint) *Fingerprint {
	out := &Fingerprint{}
	byKey := make(map[string]int)
	for _, f := range fps {
		if f == nil {
			continue
		}
		out.Sessions += f.Sessions
		out.Refs += f.Refs
		for _, s := range f.Streams {
			k := Key(s.Seq)
			i, ok := byKey[k]
			if !ok {
				byKey[k] = len(out.Streams)
				out.Streams = append(out.Streams, s)
				continue
			}
			out.Streams[i].Freq += s.Freq
			out.Streams[i].Weight += s.Weight
			out.Streams[i].Sessions += s.Sessions
		}
	}
	canonicalizeReference(out)
	return out
}

// topStreamsReference is TopStreams over mergeReference.
func topStreamsReference(fps []*Fingerprint, top int) StreamsView {
	m := mergeReference(fps...)
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

// orderSymbols are symbols whose numeric order and key byte order
// disagree (1 < 256 numerically, but 256's key sorts first), with values
// at and above 1<<56, whose key differs only in its last byte.
var orderSymbols = []uint64{0, 1, 2, 255, 256, 257, 511, 1 << 16, 1<<56 - 1, 1 << 56, 1<<56 + 1, 2 << 56, 1 << 63, math.MaxUint64}

// tiePool draws a pool of distinct sequences over orderSymbols that holds
// every proper prefix of each of its sequences.
func tiePool(r *rand.Rand, n int) [][]uint64 {
	seen := map[string]bool{}
	var pool [][]uint64
	for len(pool) < n {
		seq := make([]uint64, 1+r.Intn(5))
		for i := range seq {
			seq[i] = orderSymbols[r.Intn(len(orderSymbols))]
		}
		for l := 1; l <= len(seq) && len(pool) < n; l++ {
			if k := Key(seq[:l]); !seen[k] {
				seen[k] = true
				pool = append(pool, seq[:l:l])
			}
		}
	}
	return pool
}

// tieFingerprint draws distinct streams from pool with one of two
// weights, so most comparisons fall through to the sequence order.
func tieFingerprint(r *rand.Rand, session string, pool [][]uint64) *Fingerprint {
	f := &Fingerprint{Session: session, Sessions: 1, Refs: uint64(1 + r.Intn(1000))}
	for _, i := range r.Perm(len(pool))[:r.Intn(len(pool)+1)] {
		w := uint64(12 << r.Intn(2))
		f.Streams = append(f.Streams, Stream{Seq: pool[i], Length: len(pool[i]), Freq: uint64(1 + r.Intn(9)), Weight: w, Sessions: 1})
	}
	return f
}

// cloneFingerprint copies f's stream list, so two sorts do not share it.
func cloneFingerprint(f *Fingerprint) *Fingerprint {
	c := *f
	c.Streams = slices.Clone(f.Streams)
	return &c
}

// TestCanonicalOrderMatchesReference holds the in-place comparator, the
// hashed merge and the views built on them to the Key-string oracle over
// random fleets of heavily tied weights, sequences that are prefixes of
// each other, and symbols whose numeric and key byte orders disagree:
// the same stream order, weights and Sessions, and the same TopStreams
// and ClusterView bytes.
func TestCanonicalOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for round := 0; round < 200; round++ {
		pool := tiePool(r, 2+r.Intn(40))
		for i := 0; i < 64; i++ {
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			if got, want := compareSeqs(a, b), strings.Compare(Key(a), Key(b)); got != want {
				t.Fatalf("compareSeqs(%v, %v) = %d, key order %d", a, b, got, want)
			}
		}
		fps := make([]*Fingerprint, 1+r.Intn(6))
		refs := make([]*Fingerprint, len(fps))
		for i := range fps {
			raw := tieFingerprint(r, fmt.Sprintf("s%d", i), pool)
			fps[i], refs[i] = cloneFingerprint(raw), cloneFingerprint(raw)
			fps[i].canonicalize()
			canonicalizeReference(refs[i])
			if !reflect.DeepEqual(fps[i], refs[i]) {
				t.Fatalf("round %d: canonical order %v, reference %v", round, fps[i].Streams, refs[i].Streams)
			}
		}
		got, want := Merge(fps...), mergeReference(refs...)
		if !slices.EqualFunc(got.Streams, want.Streams, func(a, b Stream) bool { return reflect.DeepEqual(a, b) }) ||
			got.Weight != want.Weight || got.Sessions != want.Sessions || got.Refs != want.Refs {
			t.Fatalf("round %d: Merge %+v, reference %+v", round, got, want)
		}
		for _, top := range []int{0, 3} {
			if got, want := mustJSON(t, TopStreams(fps, top)), mustJSON(t, topStreamsReference(refs, top)); got != want {
				t.Fatalf("round %d top=%d: TopStreams\n%s\nreference\n%s", round, top, got, want)
			}
		}
		if got, want := mustJSON(t, ClusterView(fps, 0.3, 2)), mustJSON(t, ClusterView(refs, 0.3, 2)); got != want {
			t.Fatalf("round %d: ClusterView\n%s\nreference\n%s", round, got, want)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// tiedSnapshot is a snapshot of n distinct hot streams of one heat.
func tiedSnapshot(n int) *online.Snapshot {
	snap := &online.Snapshot{}
	for i := 0; i < n; i++ {
		snap.HotStreams.Streams = append(snap.HotStreams.Streams, online.StreamStat{
			Length: 4, Freq: 3, Heat: 12,
			Seq: []uint64{uint64(i % 7), uint64(i), uint64(i) << 8, 1},
		})
	}
	return snap
}

// TestFingerprintAllocs pins that fingerprinting allocates the same at
// any stream count when every weight ties, and that TopStreams allocates
// nothing per stream: ordering compares sequences in place, and Merge
// matches streams through one hashed table.
func TestFingerprintAllocs(t *testing.T) {
	small, large := tiedSnapshot(64), tiedSnapshot(4096)
	nSmall := testing.AllocsPerRun(10, func() { New("s", small) })
	nLarge := testing.AllocsPerRun(10, func() { New("s", large) })
	if nLarge > nSmall {
		t.Errorf("New: %v allocs at 4096 tied streams, %v at 64; want no growth", nLarge, nSmall)
	}
	fps := []*Fingerprint{New("a", large), New("b", tiedSnapshot(2048)), New("c", small)}
	if n := testing.AllocsPerRun(10, func() { TopStreams(fps, DefaultTop) }); n > 4 {
		t.Errorf("TopStreams over %d streams: %v allocs, want at most 4", 4096+2048+64, n)
	}
}
