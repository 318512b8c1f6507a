// Package hotstream implements the paper's exploitable-locality
// abstraction: hot data streams (§2.3) and their regularity metrics (§2.2),
// detected directly on the Whole Program Stream DAG with Larus's postorder
// algorithm (§3.1) and verified by an exact matching pass over the
// regenerated reference sequence. Detection reads the frozen
// *sequitur.DAG in place, naming each rule by its postorder position,
// and never decompresses it.
//
// A data stream is a reference subsequence exhibiting regularity: at least
// two references, repeated at least twice without overlap. Its regularity
// magnitude ("heat") is length x non-overlapping repetition frequency. A
// hot data stream is a minimal data stream whose heat meets the threshold
// H, chosen so hot streams together cover ~90% of all references.
package hotstream

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sequitur"
)

// Stream is one (candidate or confirmed) hot data stream.
type Stream struct {
	// ID is a dense identifier assigned at detection; the reduction
	// layer maps it into a fresh symbol space.
	ID int
	// Seq is the abstracted reference subsequence.
	Seq []uint64
	// EstFreq is the occurrence estimate from the DAG analysis (an
	// upper bound: aggregation across sites may count overlaps).
	EstFreq uint64
	// Freq is the exact non-overlapping occurrence count measured by the
	// greedy matching pass; zero before measurement.
	Freq uint64
	// GapSum accumulates references between successive non-overlapping
	// occurrences (for temporal regularity).
	GapSum uint64
}

// SpatialRegularity is the number of references in the stream (§2.2): the
// paper's inherent exploitable spatial locality metric for one stream.
func (s *Stream) SpatialRegularity() int { return len(s.Seq) }

// Magnitude is the stream's heat: length x measured frequency. Before
// measurement it uses the estimate.
func (s *Stream) Magnitude() uint64 {
	f := s.Freq
	if f == 0 {
		f = s.EstFreq
	}
	return uint64(len(s.Seq)) * f
}

// TemporalRegularity is the average number of references between
// successive non-overlapping occurrences (§2.2): the inherent exploitable
// temporal locality metric. A stream observed fewer than twice reports 0.
func (s *Stream) TemporalRegularity() float64 {
	if s.Freq < 2 {
		return 0
	}
	return float64(s.GapSum) / float64(s.Freq-1)
}

// String summarizes the stream.
func (s *Stream) String() string {
	return fmt.Sprintf("stream#%d len=%d freq=%d heat=%d", s.ID, len(s.Seq), s.Freq, s.Magnitude())
}

// Config parameterizes detection. The paper sets stream lengths to [2,100]
// (§5.2) and chooses Heat by threshold search.
type Config struct {
	MinLen int
	MaxLen int
	// Heat is the regularity-magnitude threshold H.
	Heat uint64
}

// DefaultConfig returns the paper's length bounds with the given heat.
func DefaultConfig(heat uint64) Config { return Config{MinLen: 2, MaxLen: 100, Heat: heat} }

func (c *Config) normalize() {
	c.MinLen, c.MaxLen = window(c.MinLen, c.MaxLen)
	if c.Heat == 0 {
		c.Heat = 1
	}
}

// Detect enumerates minimal hot data streams on the DAG: Larus's postorder
// traversal, visiting each node once (positions 0..d.Len()-1, children
// first) and, at each interior node, examining the data streams formed
// by concatenating subsequences that span the boundaries between the
// node's descendants (streams produced wholly by a descendant are found
// when that descendant is visited).
//
// A site is one boundary b of one rule's right-hand side, and target is
// the minimal hot length there. Its windows are the length-target
// subsequences that start in the left context (the up to target-1
// trailing terminals of element b) and run into the right context (the
// leading terminals of elements b+1..). A site costs O(target) to copy
// its contexts and roll a hash over its at most target-1 windows, plus
// one table probe per window and one exact comparison of length target
// per window that repeats a known candidate: O(target²) per site at
// worst, with no per-window allocation. The contexts go into an arena
// that lives for the call; only the streams that survive the heat and
// minimality filters are copied out of it.
//
// A rule that occurs once (the root, whose sites cover nearly every
// reference at a low heat) is laid out in the arena once rather than
// site by site, and its windows enter the table only if a first hashing
// pass saw their key twice: a window of mass 1 that no other site
// shares a length with needs a repeat to reach frequency 2.
func Detect(d *sequitur.DAG, cfg Config) []*Stream {
	return detect(d, cfg, newWindowTable())
}

// detect is Detect with the window table supplied by the caller, so a
// threshold search can reuse one table's memory across its probes. The
// table is reset first; nothing returned points into it.
func detect(d *sequitur.DAG, cfg Config, wt *windowTable) []*Stream {
	cfg.normalize()
	wt.reset()

	// A rule that occurs once gives its windows length max(H, MinLen),
	// while any other rule's are at most max(ceil(H/2), MinLen) long. So
	// when H > MinLen no other site shares that length, and the windows
	// of the once-occurring rules are deferred to be filtered for repeats.
	deferOnce := cfg.Heat > uint64(cfg.MinLen)
	for p := range d.Len() {
		occ := d.Occ(p)
		if occ == 0 {
			continue
		}
		// Minimal hot length at this site: heat here is len x occ, so a
		// stream shorter than ceil(H/occ) cannot be hot on this rule's
		// occurrences alone.
		target := int((cfg.Heat + occ - 1) / occ)
		if target < cfg.MinLen {
			target = cfg.MinLen
		}
		if target > cfg.MaxLen {
			continue // even a max-length stream falls short of H here
		}
		if occ == 1 && deferOnce && wt.deferRule(d, p, target) {
			continue
		}
		k := d.RHSLen(p)
		for b := 0; b+1 < k; b++ {
			base := len(wt.arena)
			// Left context: up to target-1 trailing terminals of
			// element b's expansion.
			if ref, isRule := d.Elem(p, b); isRule {
				left := d.Suffix(int(ref), target-1)
				if len(left) > target-1 {
					left = left[len(left)-(target-1):]
				}
				wt.arena = append(wt.arena, left...)
			} else {
				wt.arena = append(wt.arena, ref)
			}
			nLeft := len(wt.arena) - base
			// Right context: prefixes of elements b+1.. until target-1
			// terminals are available (a window starting at the last
			// left position needs target-1 more).
			for j := b + 1; j < k; j++ {
				need := target - 1 - (len(wt.arena) - base - nLeft)
				if need <= 0 {
					break
				}
				if ref, isRule := d.Elem(p, j); isRule {
					wt.arena = append(wt.arena, d.Prefix(int(ref), need)...)
				} else {
					wt.arena = append(wt.arena, ref)
				}
			}
			wt.addSite(base, nLeft, target, occ)
		}
	}
	wt.addRepeated()

	// Filter by heat, then enforce minimality length by length: a
	// stream with a hot proper prefix is dropped, and a proper prefix is
	// shorter, so which streams of one length survive depends only on
	// the survivors of shorter lengths. Only the survivors are put in
	// content order; each carries its first symbol, which settles most
	// comparisons without touching the arena. The streams come out
	// ordered by length, first symbol, then content.
	type hotCand struct {
		first uint64
		n, ci int32
	}
	var hot []hotCand
	for i := range wt.cands {
		c := &wt.cands[i]
		// Regularity requires at least two non-overlapping occurrences
		// (§2.2) in addition to the heat threshold.
		if c.freq >= 2 && uint64(c.n)*c.freq >= cfg.Heat {
			hot = append(hot, hotCand{first: wt.arena[c.off], n: c.n, ci: int32(i)})
		}
	}
	slices.SortFunc(hot, func(a, b hotCand) int { return cmp.Compare(a.n, b.n) })
	tr := wt.minimal
	var kept []int32
	var same []hotCand
	total := 0
	for i, j := 0, 0; i < len(hot); i = j {
		same = same[:0]
		for j = i; j < len(hot) && hot[j].n == hot[i].n; j++ {
			if !tr.hasHotPrefix(wt.seq(&wt.cands[hot[j].ci])) {
				same = append(same, hot[j])
			}
		}
		slices.SortFunc(same, func(a, b hotCand) int {
			if c := cmp.Compare(a.first, b.first); c != 0 {
				return c
			}
			return slices.Compare(wt.seq(&wt.cands[a.ci]), wt.seq(&wt.cands[b.ci]))
		})
		for _, h := range same {
			seq := wt.seq(&wt.cands[h.ci])
			tr.insert(seq, len(kept))
			kept = append(kept, h.ci)
			total += len(seq)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	// Copy the survivors out of the arena so no Stream pins it.
	seqs := make([]uint64, 0, total)
	backing := make([]Stream, len(kept))
	out := make([]*Stream, len(kept))
	for i, ci := range kept {
		c := &wt.cands[ci]
		start := len(seqs)
		seqs = append(seqs, wt.seq(c)...)
		backing[i] = Stream{ID: i, Seq: seqs[start:len(seqs):len(seqs)], EstFreq: c.freq}
		out[i] = &backing[i]
	}
	return out
}
