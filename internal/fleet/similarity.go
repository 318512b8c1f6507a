package fleet

import (
	"cmp"
	"slices"

	"repro/internal/parallel"
)

// SeqSimilarity scores two abstracted reference sequences in [0, 1]:
// the mean of a normalized longest-common-subsequence score
// (2*LCS/(len(a)+len(b)), order-sensitive) and a bigram Jaccard index
// (shared local transitions, order-robust). Combining the two keeps a
// reordered-but-same-alphabet stream from scoring as high as a truly
// shared subsequence, while a one-symbol insertion (the common mutation
// when a layout change splits an object) still scores close to 1.
// Sequences too short to have bigrams have a Jaccard term of 0 unless
// they are equal.
//
// Properties (enforced by tests):
//
//	SeqSimilarity(a, a) = 1                 (identity)
//	SeqSimilarity(a, b) = SeqSimilarity(b, a)  (symmetry)
//	0 <= SeqSimilarity(a, b) <= 1           (bounds)
//	deterministic: pure function of its arguments
func SeqSimilarity(a, b []uint64) float64 {
	f := prepare([][]uint64{a, b})
	var sc scratch
	return sc.seqSim(&f[0], &f[1])
}

// bigram is one adjacent symbol pair.
type bigram struct{ a, b uint64 }

func cmpBigram(x, y bigram) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// streamFeatures is what the pair kernel reads of one stream, computed
// once per comparison call instead of once per pair.
type streamFeatures struct {
	seq []uint64
	// key is seq's appendKey bytes: equal keys mean equal sequences.
	key string
	// bigrams and syms are the stream's adjacent pairs and symbols,
	// sorted and unique, so Jaccard is a merge count and "shares a
	// symbol" a merge scan.
	bigrams []bigram
	syms    []uint64
	weight  uint64
}

// prepare computes the features of each sequence. The keys, symbol and
// bigram sets share three backing arrays, so the cost is a handful of
// allocations per call, not per stream.
func prepare(seqs [][]uint64) []streamFeatures {
	total := 0
	for _, s := range seqs {
		total += len(s)
	}
	keyBytes := make([]byte, 0, 8*total)
	for _, s := range seqs {
		keyBytes = appendKey(keyBytes, s)
	}
	keys := string(keyBytes)
	syms := make([]uint64, 0, total)
	bigrams := make([]bigram, 0, total)
	out := make([]streamFeatures, len(seqs))
	for i, s := range seqs {
		f := &out[i]
		f.seq = s
		f.key, keys = keys[:8*len(s)], keys[8*len(s):]

		start := len(syms)
		syms = append(syms, s...)
		slices.Sort(syms[start:])
		f.syms = slices.Clip(slices.Compact(syms[start:]))
		syms = syms[:start+len(f.syms)]

		start = len(bigrams)
		for j := 1; j < len(s); j++ {
			bigrams = append(bigrams, bigram{s[j-1], s[j]})
		}
		slices.SortFunc(bigrams[start:], cmpBigram)
		f.bigrams = slices.Clip(slices.Compact(bigrams[start:]))
		bigrams = bigrams[:start+len(f.bigrams)]
	}
	return out
}

// features is one fingerprint's prepared streams, in canonical order,
// plus its exact-match key set.
type features struct {
	weight  uint64
	streams []streamFeatures
	exact   map[string]struct{}
}

func newFeatures(f *Fingerprint) *features {
	seqs := make([][]uint64, len(f.Streams))
	ft := &features{weight: f.Weight, exact: make(map[string]struct{}, len(f.Streams))}
	for i, s := range f.Streams {
		seqs[i] = s.Seq
	}
	ft.streams = prepare(seqs)
	for i := range ft.streams {
		ft.streams[i].weight = f.Streams[i].Weight
		ft.exact[ft.streams[i].key] = struct{}{}
	}
	return ft
}

// scratch holds the two LCS rows reused across the pairs one goroutine
// scores (a Matrix row or a Similarity call).
type scratch struct{ prev, cur []int }

// lcs is the longest-common-subsequence length, two-row dynamic
// programming. Hot streams are short (bounded by the analysis's
// MaxStreamLen), so the quadratic cost is small; the rows only grow.
func (sc *scratch) lcs(a, b []uint64) int {
	n := len(b) + 1
	if cap(sc.prev) < n {
		sc.prev, sc.cur = make([]int, n), make([]int, n)
	}
	prev, cur := sc.prev[:n], sc.cur[:n]
	clear(prev)
	cur[0] = 0
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

// seqSim is SeqSimilarity over prepared features.
func (sc *scratch) seqSim(x, y *streamFeatures) float64 {
	if x.key == y.key {
		return 1
	}
	if len(x.seq) == 0 || len(y.seq) == 0 {
		return 0
	}
	lcsNorm := 2 * float64(sc.lcs(x.seq, y.seq)) / float64(len(x.seq)+len(y.seq))
	return (lcsNorm + jaccard(x.bigrams, y.bigrams)) / 2
}

// jaccard is |A∩B| / |A∪B| of two sorted unique bigram sets, 0 when
// both are empty.
func jaccard(a, b []bigram) float64 {
	both, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpBigram(a[i], b[j]); {
		case c == 0:
			both++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - both
	if union == 0 {
		return 0
	}
	return float64(both) / float64(union)
}

// upperBound is a ceiling on seqSim(x, y) for unequal streams: the LCS
// is at most the shorter length, and the shared bigrams at most the
// smaller set while the union is at least the larger. Each step is an
// IEEE operation, monotone in its operands, on operands no smaller than
// seqSim's, so the bound holds in floating point too. It is NaN only for
// two empty streams, which are equal.
func upperBound(x, y *streamFeatures) float64 {
	la, lb := len(x.seq), len(y.seq)
	ba, bb := len(x.bigrams), len(y.bigrams)
	jac := 0.0
	if m := max(ba, bb); m > 0 {
		jac = float64(min(ba, bb)) / float64(m)
	}
	return (2*float64(min(la, lb))/float64(la+lb) + jac) / 2
}

// shareSymbol reports whether two sorted unique symbol sets intersect.
// Unequal streams that share no symbol have no common subsequence and
// no common bigram, so they score 0.
func shareSymbol(a, b []uint64) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Similarity scores two fingerprints in [0, 1]: the weighted
// best-match overlap of their hot-stream sets, symmetrized. Each stream
// contributes its weight times the best SeqSimilarity against any
// stream of the other fingerprint; both directions sum and normalize by
// the combined weight:
//
//	Sim(A, B) = (Σ_{x∈A} w_x·best(x,B) + Σ_{y∈B} w_y·best(y,A)) / (W_A + W_B)
//
// Properties (enforced by tests): Sim(a, a) = 1, Sim(a, b) = Sim(b, a),
// bounds [0, 1], and determinism — the double sum is evaluated in
// canonical stream order, so the float result is bit-stable.
func Similarity(a, b *Fingerprint) float64 {
	var sc scratch
	return similarity(newFeatures(a), newFeatures(b), &sc)
}

func similarity(a, b *features, sc *scratch) float64 {
	if a.weight == 0 && b.weight == 0 {
		return 1 // two empty profiles are trivially alike
	}
	if a.weight == 0 || b.weight == 0 {
		return 0
	}
	return (bestMatchWeight(a, b, sc) + bestMatchWeight(b, a, sc)) /
		float64(a.weight+b.weight)
}

// bestMatchWeight is Σ over a's streams of weight times the best match
// in b, summed in a's canonical order. Exact sequence matches
// short-circuit through b's key set. The fuzzy scan skips a candidate
// whose upper bound cannot beat the best so far, or that shares no
// symbol (it scores 0): best only moves on a strict >, so neither skip
// changes it.
//
//lint:hotpath runs once per stream of each fingerprint pair; allocates nothing
func bestMatchWeight(a, b *features, sc *scratch) float64 {
	var sum float64
	for i := range a.streams {
		x := &a.streams[i]
		if _, ok := b.exact[x.key]; ok {
			sum += float64(x.weight)
			continue
		}
		best := 0.0
		for j := range b.streams {
			y := &b.streams[j]
			if upperBound(x, y) <= best || !shareSymbol(x.syms, y.syms) {
				continue
			}
			if s := sc.seqSim(x, y); s > best {
				best = s
			}
		}
		sum += float64(x.weight) * best
	}
	return sum
}

// Matrix computes the pairwise similarity matrix of fps, with rows
// fanned over the bounded worker pool. Entry [i][j] is
// Similarity(fps[i], fps[j]); the matrix is symmetric with a unit
// diagonal, and identical at any worker count (each cell is an
// independent pure computation assigned to a fixed index). Each
// fingerprint's features are computed once per call, not per pair.
func Matrix(fps []*Fingerprint, workers int) [][]float64 {
	n := len(fps)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	feats := make([]*features, n)
	for i, f := range fps {
		feats[i] = newFeatures(f)
	}
	// Row i computes cells j > i; mirroring fills the lower triangle
	// after the fan-out so no two tasks write the same cell.
	_ = parallel.ForEach(parallel.Workers(workers), n, func(i int) error {
		var sc scratch
		for j := i + 1; j < n; j++ {
			m[i][j] = similarity(feats[i], feats[j], &sc)
		}
		return nil
	})
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m[i][j] = m[j][i]
		}
	}
	return m
}
