package hotstream

import (
	"encoding/binary"
	"math/bits"
)

// Measurement is the result of the exact matching pass: per-stream
// non-overlapping occurrence counts and gaps (the regularity frequency and
// temporal regularity of §2.2, counted independently per stream), overall
// coverage (the fraction of references participating in at least one hot
// stream occurrence), and the reduced reference sequence of §3.2.
type Measurement struct {
	// Streams is the input set with Freq/GapSum filled in; streams
	// observed fewer than two times (no regularity) are removed.
	Streams []*Stream
	// TotalRefs is the number of references scanned.
	TotalRefs uint64
	// CoveredRefs is the number of references inside at least one
	// hot-stream occurrence (union, no double counting).
	CoveredRefs uint64
	// ColdRefs = TotalRefs - CoveredRefs.
	ColdRefs uint64
	// Reduced is the reduced trace: one symbol per hot-stream occurrence
	// under greedy longest-match tokenization, cold references elided.
	// Symbol = StreamBase + stream index (within Streams). Nil unless
	// requested.
	Reduced []uint64
	// StreamBase is the first symbol value used for stream encoding.
	StreamBase uint64

	// detected is the measured input, dropped streams included, in the
	// order it was passed: what Counts encodes.
	detected []*Stream
}

// Coverage returns the fraction of references covered by hot streams: the
// quantity the 90% threshold rule constrains.
func (m *Measurement) Coverage() float64 {
	if m.TotalRefs == 0 {
		return 0
	}
	return float64(m.CoveredRefs) / float64(m.TotalRefs)
}

// ScanOccurrences runs greedy longest-match tokenization over an
// in-memory name sequence and invokes fn for each hot-stream occurrence
// in the resulting partition (id indexes streams; the occurrence covers
// names[start:start+length]). The optimization evaluator uses this to
// drive prefetching without re-deriving match state.
func ScanOccurrences(names []uint64, streams []*Stream, fn func(id, start, length int)) {
	tr := trieOf(streams)
	for i := 0; i < len(names); {
		id, n := tr.longestMatch(names[i:])
		if id >= 0 {
			fn(int(id), i, n)
			i += n
		} else {
			i++
		}
	}
}

// Measure performs the exact matching pass with an Aho-Corasick scan of
// seq, the reference sequence in memory (callers holding only a grammar
// expand it once with sequitur's DAG.Expand): every occurrence of every
// stream is observed; per stream, maximal
// non-overlapping occurrences are counted left to right (the regularity
// frequency of §2.2) with their inter-occurrence gaps (temporal
// regularity); coverage is the union of all occurrence spans. Streams seen
// fewer than twice exhibit no regularity and are dropped.
//
// When emitReduced is set, a second, greedy longest-match pass tokenizes
// the sequence into the reduced trace of §3.2 (stream occurrences as
// single symbols, cold references elided).
func Measure(seq []uint64, streams []*Stream, cfg Config, streamBase uint64, emitReduced bool) *Measurement {
	return measureWith(seq, streams, trieOf(streams), cfg, streamBase, emitReduced)
}

// measureWith is Measure on tr, a trie that indexes streams[i].Seq as
// stream i (as trieOf(streams) builds it) and has no failure links yet.
// It adds them, so tr becomes the scan's automaton; the Measurement
// keeps no pointer to it.
func measureWith(seq []uint64, streams []*Stream, tr *trie, cfg Config, streamBase uint64, emitReduced bool) *Measurement {
	cfg.normalize()
	tr.buildFailLinks()
	m := &Measurement{StreamBase: streamBase}

	// Pass 1: Aho-Corasick scan. Matches are discovered in end-position
	// order, so per-stream non-overlap greediness and union coverage
	// both work with simple watermarks.
	sc := acScan{tr: tr, occ: make([]streamOcc, len(streams))}
	sc.scan(seq)
	for i, s := range streams {
		s.Freq, s.GapSum = sc.occ[i].freq, sc.occ[i].gapSum
	}
	m.TotalRefs = sc.pos
	m.CoveredRefs = sc.covered
	m.ColdRefs = m.TotalRefs - sc.covered
	m.detected = streams

	// Keep only streams with regularity (>= 2 non-overlapping
	// occurrences), renumbering densely.
	kept := keepRegular(streams)
	m.Streams = kept

	// Coverage correction: spans contributed only by dropped streams
	// should not count. Rather than re-deriving the union, rescan only
	// when something was dropped and the answer could change.
	if len(kept) != len(streams) && len(kept) > 0 {
		m.CoveredRefs, m.ColdRefs = reunion(seq, kept, cfg)
		m.ColdRefs = m.TotalRefs - m.CoveredRefs
	} else if len(kept) == 0 {
		m.CoveredRefs = 0
		m.ColdRefs = m.TotalRefs
	}

	// Pass 2: reduced-trace tokenization over the kept streams.
	if emitReduced {
		m.Reduced = tokenize(seq, kept, streamBase)
	}
	return m
}

// keepRegular returns the streams with regularity (at least two
// non-overlapping occurrences) in input order, renumbering their IDs
// densely.
func keepRegular(streams []*Stream) []*Stream {
	n := 0
	for _, s := range streams {
		if s.Freq >= 2 {
			n++
		}
	}
	kept := make([]*Stream, 0, n)
	for _, s := range streams {
		if s.Freq >= 2 {
			s.ID = len(kept)
			kept = append(kept, s)
		}
	}
	return kept
}

// Counts encodes what the matching pass counted, for Replay: the
// number of measured streams, TotalRefs and CoveredRefs, then each
// measured stream's Freq in input order, dropped streams included,
// followed by its GapSum when it was kept (a dropped stream's is
// zero). All are uvarints, so the record takes a few bytes per stream;
// the slice is allocated at its exact length.
func (m *Measurement) Counts() []byte {
	n := uvarintLen(uint64(len(m.detected))) + uvarintLen(m.TotalRefs) + uvarintLen(m.CoveredRefs)
	for _, s := range m.detected {
		n += uvarintLen(s.Freq)
		if s.Freq >= 2 {
			n += uvarintLen(s.GapSum)
		}
	}
	b := make([]byte, 0, n)
	b = binary.AppendUvarint(b, uint64(len(m.detected)))
	b = binary.AppendUvarint(b, m.TotalRefs)
	b = binary.AppendUvarint(b, m.CoveredRefs)
	for _, s := range m.detected {
		b = binary.AppendUvarint(b, s.Freq)
		if s.Freq >= 2 {
			b = binary.AppendUvarint(b, s.GapSum)
		}
	}
	return b
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Replay rebuilds, from the Counts of an earlier measurement of the
// same streams over the same sequence, the Measurement that
// Measure(seq, streams, cfg, 0, false) would return: the same Freq and
// GapSum on every stream, the same drops and dense IDs, the same
// coverage. It touches neither the sequence nor the streams' contents,
// so the caller must know the record belongs to these streams (the
// online engine keys it by its event count). It refuses, returning
// false and leaving the streams unchanged, a record that is malformed,
// covers more references than it scanned, or whose stream count or
// length does not match.
func Replay(streams []*Stream, counts []byte) (*Measurement, bool) {
	r := countReader{b: counts}
	n, total, covered := r.next(), r.next(), r.next()
	body := r.b
	if r.bad || n != uint64(len(streams)) || covered > total {
		return nil, false
	}
	for range streams {
		if r.next() >= 2 {
			r.next()
		}
	}
	if r.bad || len(r.b) != 0 {
		return nil, false
	}
	r = countReader{b: body}
	for _, s := range streams {
		s.Freq, s.GapSum = r.next(), 0
		if s.Freq >= 2 {
			s.GapSum = r.next()
		}
	}
	return &Measurement{
		Streams:     keepRegular(streams),
		TotalRefs:   total,
		CoveredRefs: covered,
		ColdRefs:    total - covered,
		detected:    streams,
	}, true
}

// countReader decodes a Counts record, latching the first malformed or
// missing value.
type countReader struct {
	b   []byte
	bad bool
}

func (r *countReader) next() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

// acScan is the state of an Aho-Corasick pass: the automaton state,
// the references consumed, and the union coverage so far. With occ set
// it also counts each stream's maximal non-overlapping occurrences and
// their gaps; without, it only measures coverage.
type acScan struct {
	tr                     *trie
	occ                    []streamOcc // by stream ID
	state                  int32
	pos, unionEnd, covered uint64
}

// streamOcc is one stream's count so far: non-overlapping occurrences,
// the gaps between them, and where the last one ended.
type streamOcc struct{ freq, gapSum, lastEnd uint64 }

// scan consumes names, keeping the hot state in locals for the loop.
func (sc *acScan) scan(names []uint64) {
	tr, occ := sc.tr, sc.occ
	state, pos, unionEnd, covered := sc.state, sc.pos, sc.unionEnd, sc.covered
	for _, v := range names {
		state = tr.step(state, v)
		pos++
		end := pos
		// Report the match at this node (if terminating) and every
		// shorter match on the output chain.
		n := state
		if tr.nodes[n].streamID < 0 {
			n = tr.nodes[n].out
		}
		for ; n > 0; n = tr.nodes[n].out {
			length := uint64(tr.nodes[n].depth)
			start := end - length
			// Union coverage counts every occurrence — a reference
			// inside an occurrence participates in the stream even if
			// that occurrence overlaps a counted one.
			if start >= unionEnd {
				covered += length
				unionEnd = end
			} else if end > unionEnd {
				covered += end - unionEnd
				unionEnd = end
			}
			if occ == nil {
				continue
			}
			// Regularity frequency counts maximal non-overlapping
			// occurrences (§2.2), greedy from the left.
			o := &occ[tr.nodes[n].streamID]
			if o.freq > 0 {
				if start < o.lastEnd {
					continue
				}
				o.gapSum += start - o.lastEnd
			}
			o.freq++
			o.lastEnd = end
		}
	}
	sc.state, sc.pos, sc.unionEnd, sc.covered = state, pos, unionEnd, covered
}

// reunion recomputes union coverage over the kept streams only.
func reunion(seq []uint64, streams []*Stream, cfg Config) (covered, cold uint64) {
	tr := trieOf(streams)
	tr.buildFailLinks()
	sc := acScan{tr: tr}
	sc.scan(seq)
	return sc.covered, sc.pos - sc.covered
}

// tokenize produces the reduced trace: ScanOccurrences' greedy
// longest-match partition, one symbol per occurrence, cold references
// elided.
func tokenize(seq []uint64, streams []*Stream, streamBase uint64) []uint64 {
	reduced := make([]uint64, 0, 1024)
	ScanOccurrences(seq, streams, func(id, _, _ int) {
		reduced = append(reduced, streamBase+uint64(id))
	})
	return reduced
}
