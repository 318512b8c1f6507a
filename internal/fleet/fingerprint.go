// Package fleet is the cross-session analysis layer: it turns each
// session's hot data streams into a compact, comparable fingerprint,
// scores fingerprints against each other with a fuzzy stream matcher,
// clusters sessions that share hot streams, and aggregates fleet-wide
// views ("top streams across all sessions", "sessions whose locality
// profile shifted"). Everything below a view is deterministic: the same
// fingerprints produce byte-identical views at any worker count, which
// is what lets the sharded gateway compute fleet views from per-shard
// fingerprints and prove them equal to a single node's.
//
// The design follows go-sequitur's Compact grammar (SNIPPETS.md #2),
// which pairs a compressed sequence representation with Importance()
// and Similarity() — here the WPS hot streams are the compact form,
// weight is the importance, and SeqSimilarity/Similarity are the
// fuzzy comparators.
package fleet

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/online"
)

// Stream is one hot data stream inside a fingerprint: the abstracted
// reference sequence plus its weight. In a merged fingerprint the
// counters are sums over every contributing session and Sessions counts
// the provenance (how many sessions carry the stream).
type Stream struct {
	// Seq is the abstracted reference subsequence (§2.3 names).
	Seq []uint64 `json:"seq"`
	// Length is the per-occurrence coverage: references per occurrence.
	Length int `json:"length"`
	// Freq is the repetition: exact non-overlapping occurrence count.
	Freq uint64 `json:"freq"`
	// Weight is coverage x repetition (Length x Freq, the §2.2
	// regularity magnitude) — the stream's importance in the fleet.
	Weight uint64 `json:"weight"`
	// Sessions counts the sessions contributing this exact sequence
	// (1 in a single-session fingerprint).
	Sessions int `json:"sessions"`
}

// appendKey appends seq's key to b: 8 bytes per symbol, least
// significant first (the internal/regress technique). Equal keys mean
// equal sequences, and the canonical stream order sorts ties by key.
func appendKey(b []byte, seq []uint64) []byte {
	for _, v := range seq {
		b = append(b,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return b
}

// Fingerprint is a session's compact locality signature: its hot
// streams with weights, in canonical order. It is order-insensitive by
// construction — any stream arrival order canonicalizes to the same
// fingerprint — serializable as JSON, and mergeable (Merge).
type Fingerprint struct {
	// Session names the session ("" for a merged, fleet-wide
	// fingerprint).
	Session string `json:"session,omitempty"`
	// Sessions counts contributing sessions (1 until merged).
	Sessions int `json:"sessions"`
	// Refs is the session's total reference count, summed when merged.
	Refs uint64 `json:"refs"`
	// Weight is the total stream weight, the normalizer for similarity
	// and share computations.
	Weight uint64 `json:"weight"`
	// Streams is the hot-stream set in canonical order: weight
	// descending, then sequence key ascending.
	Streams []Stream `json:"streams"`
}

// canonicalize sorts streams into the canonical order and recomputes
// the total weight.
func (f *Fingerprint) canonicalize() {
	slices.SortFunc(f.Streams, compareStreams)
	f.Weight = 0
	for _, s := range f.Streams {
		f.Weight += s.Weight
	}
}

// compareStreams is the canonical stream order: weight descending, then
// sequence key ascending. Sequences in a fingerprint are distinct, so
// the order is total and every sort yields the same result.
func compareStreams(a, b Stream) int {
	if c := cmp.Compare(b.Weight, a.Weight); c != 0 {
		return c
	}
	return compareSeqs(a.Seq, b.Seq)
}

// compareSeqs orders sequences as their keys (appendKey) order, without
// building them: a key holds each symbol's bytes least significant
// first, so byte order on one symbol is numeric order on its
// byte-reversed value, and a proper prefix sorts first.
func compareSeqs(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return cmp.Compare(bits.ReverseBytes64(a[i]), bits.ReverseBytes64(b[i]))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// New builds a session's fingerprint from its analysis snapshot.
func New(session string, snap *online.Snapshot) *Fingerprint {
	f := &Fingerprint{
		Session:  session,
		Sessions: 1,
		Refs:     snap.Trace.Refs,
		Streams:  make([]Stream, 0, len(snap.HotStreams.Streams)),
	}
	for _, s := range snap.HotStreams.Streams {
		f.Streams = append(f.Streams, Stream{
			Seq:      s.Seq,
			Length:   s.Length,
			Freq:     s.Freq,
			Weight:   s.Heat, // Heat = Length x Freq: coverage x repetition
			Sessions: 1,
		})
	}
	f.canonicalize()
	return f
}

// Merge unions fingerprints into one fleet-wide fingerprint: streams
// match by exact abstracted sequence, weights and occurrence counts
// sum, and Sessions counts provenance. Merging is commutative and
// associative — the result is independent of argument order — because
// stream accumulation is integer addition and the output is
// canonicalized.
//
// Streams are matched through an open-addressed table of indices into
// the output, keyed by a hash of the sequence; a hit is confirmed by
// comparing the sequences. Its allocations do not grow with the number
// of streams.
func Merge(fps ...*Fingerprint) *Fingerprint {
	total := 0
	for _, f := range fps {
		if f != nil {
			total += len(f.Streams)
		}
	}
	out := &Fingerprint{Streams: make([]Stream, 0, total)}
	// slots holds output index+1 (0 is empty) at a load of at most 1/2;
	// hashes[i] is the hash of out.Streams[i].Seq.
	slots := make([]int32, max(2, 2<<bits.Len(uint(total))))
	hashes := make([]uint64, 0, total)
	mask := uint64(len(slots) - 1)
	for _, f := range fps {
		if f == nil {
			continue
		}
		out.Sessions += f.Sessions
		out.Refs += f.Refs
	streams:
		for _, s := range f.Streams {
			h := hashSeq(s.Seq)
			for p := h & mask; ; p = (p + 1) & mask {
				i := int(slots[p]) - 1
				if i < 0 {
					slots[p] = int32(len(out.Streams) + 1)
					out.Streams = append(out.Streams, s)
					hashes = append(hashes, h)
					continue streams
				}
				if hashes[i] == h && slices.Equal(out.Streams[i].Seq, s.Seq) {
					out.Streams[i].Freq += s.Freq
					out.Streams[i].Weight += s.Weight
					out.Streams[i].Sessions += s.Sessions
					continue streams
				}
			}
		}
	}
	out.canonicalize()
	return out
}

// hashSeq is a 64-bit hash of a sequence: a multiply-xorshift step per
// symbol, seeded with the length, and a final avalanche.
func hashSeq(seq []uint64) uint64 {
	h := uint64(len(seq)) * 0x9e3779b97f4a7c15
	for _, v := range seq {
		h = (h ^ v) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	return h ^ h>>32
}
