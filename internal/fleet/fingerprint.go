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
	"sort"

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

// Key renders the abstracted sequence for set comparison (8 bytes per
// symbol, the internal/regress technique).
func Key(seq []uint64) string {
	return string(appendKey(make([]byte, 0, len(seq)*8), seq))
}

// appendKey appends seq's key bytes to b.
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
func Merge(fps ...*Fingerprint) *Fingerprint {
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
	out.canonicalize()
	return out
}
