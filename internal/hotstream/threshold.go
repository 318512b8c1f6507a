package hotstream

import (
	"math"

	"repro/internal/sequitur"
)

// DAGSource adapts a *sequitur.DAG to the detector's view. A rule's id
// is its postorder position in the DAG.
type DAGSource struct {
	D *sequitur.DAG
}

// NewDAGSource wraps d.
func NewDAGSource(d *sequitur.DAG) *DAGSource { return &DAGSource{D: d} }

// RuleIDs returns the rules' positions in postorder (children first).
func (s *DAGSource) RuleIDs() []uint64 {
	out := make([]uint64, s.D.Len())
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// Occ returns the rule's occurrence count in the full sequence.
func (s *DAGSource) Occ(id uint64) uint64 { return s.D.Occ(int(id)) }

// ExpLen returns the rule's expansion length.
func (s *DAGSource) ExpLen(id uint64) uint64 { return s.D.ExpLen(int(id)) }

// RHSLen returns the number of right-hand-side positions.
func (s *DAGSource) RHSLen(id uint64) int { return s.D.RHSLen(int(id)) }

// Elem returns position i of the rule's RHS.
func (s *DAGSource) Elem(id uint64, i int) (uint64, bool) { return s.D.Elem(int(id), i) }

// Prefix returns the first n terminals of the rule's expansion.
func (s *DAGSource) Prefix(id uint64, n int) []uint64 { return s.D.Prefix(int(id), n) }

// Suffix returns the last n terminals of the rule's expansion.
func (s *DAGSource) Suffix(id uint64, n int) []uint64 { return s.D.Suffix(int(id), n) }

var _ dagView = (*DAGSource)(nil)

// Threshold reports the outcome of the exploitable-locality threshold
// search of §5.2: the heat threshold normalized to multiples of the "unit
// uniform access" (total references / total addresses), which permits
// comparison across programs. A larger multiple means more data-reference
// regularity.
type Threshold struct {
	// Multiple is the threshold in unit-uniform-access multiples (Table
	// 2's "locality threshold" column).
	Multiple uint64
	// Unit is one uniform access: total refs / total addresses.
	Unit float64
	// Heat is the absolute regularity-magnitude threshold used.
	Heat uint64
	// Coverage achieved at this threshold.
	Coverage float64
}

// SearchConfig parameterizes FindThreshold.
type SearchConfig struct {
	// MinLen/MaxLen bound stream lengths (paper: 2 and 100).
	MinLen, MaxLen int
	// CoverageTarget is the fraction of references hot streams must
	// cover (paper: 0.90).
	CoverageTarget float64
	// MaxMultiple caps the search (default 1<<20).
	MaxMultiple uint64
}

// Normalized returns the configuration with the paper's defaults
// applied: the stream-length rule of window, a coverage target outside
// (0, 1] (NaN included) replaced by 0.90, and a zero search cap by
// 1<<20. It is the one place these defaults live; the batch and online
// option types apply their window and coverage target through it, so
// the two can never disagree on them.
func (c SearchConfig) Normalized() SearchConfig {
	c.MinLen, c.MaxLen = window(c.MinLen, c.MaxLen)
	if !(c.CoverageTarget > 0 && c.CoverageTarget <= 1) {
		c.CoverageTarget = 0.90
	}
	if c.MaxMultiple == 0 {
		c.MaxMultiple = 1 << 20
	}
	return c
}

// window bounds stream lengths as the paper does (§5.2: 2..100): a floor
// below 2 becomes 2, and a cap below the floor becomes the larger of 100
// and the floor, so raising only the floor never inverts the window.
func window(minLen, maxLen int) (int, int) {
	if minLen < 2 {
		minLen = 2
	}
	if maxLen < minLen {
		maxLen = max(100, minLen)
	}
	return minLen, maxLen
}

// FixedThreshold builds the threshold record for an explicitly chosen
// multiple, bypassing the coverage-driven search. Coverage is left zero;
// callers fill it from a subsequent measurement.
func FixedThreshold(multiple, totalRefs, totalAddrs uint64) Threshold {
	unit := 1.0
	if totalAddrs > 0 {
		unit = float64(totalRefs) / float64(totalAddrs)
	}
	if unit < 1 {
		unit = 1
	}
	h := uint64(math.Round(float64(multiple) * unit))
	if h < 1 {
		h = 1
	}
	return Threshold{Multiple: multiple, Unit: unit, Heat: h}
}

// FindThreshold finds the largest unit-uniform-access multiple whose hot
// data streams still cover the target fraction of references: few, hot
// streams covering 90% of references make attractive optimization targets,
// so the search maximizes the threshold subject to the coverage
// constraint. Coverage is monotone non-increasing in the threshold, so an
// exponential probe plus binary search suffices.
//
// It returns the threshold and the measurement at it: exactly what
// Measure(seq, Detect(d, cfg), cfg, 0, false) returns at the returned heat
// (streams with exact frequencies and gaps), so a caller need not repeat
// that probe. If even multiple 1 misses the target, multiple 1 is returned
// with whatever coverage it achieves.
//
// Every probe scans seq, the whole reference sequence d represents. The
// probes' detection passes share one window table, and each probe
// measures on the minimality trie its detection pass left there instead
// of building a second trie of the same streams.
func FindThreshold(d dagView, seq []uint64, totalRefs, totalAddrs uint64, cfg SearchConfig) (Threshold, *Measurement) {
	cfg = cfg.Normalized()
	unit := 1.0
	if totalAddrs > 0 {
		unit = float64(totalRefs) / float64(totalAddrs)
	}
	if unit < 1 {
		unit = 1
	}
	heatOf := func(m uint64) uint64 {
		h := uint64(math.Round(float64(m) * unit))
		if h < 1 {
			h = 1
		}
		return h
	}
	wt := newWindowTable()
	eval := func(m uint64) *Measurement {
		c := Config{MinLen: cfg.MinLen, MaxLen: cfg.MaxLen, Heat: heatOf(m)}
		streams := detect(d, c, wt)
		// detect left wt.minimal indexing exactly these streams, stream
		// i as i, in the order trieOf(streams) would insert them, so
		// the scan runs on it instead of on a second copy. This is
		// safe because the next probe's reset comes only after this
		// measurement is taken, and the Measurement keeps no pointer
		// to the trie.
		return measureWith(seq, streams, wt.minimal, c, 0, false)
	}

	bestM := uint64(1)
	best := eval(1)
	if best.Coverage() < cfg.CoverageTarget {
		return Threshold{Multiple: 1, Unit: unit, Heat: heatOf(1), Coverage: best.Coverage()}, best
	}
	// Exponential probe for the first failing multiple.
	lo, hi := uint64(1), uint64(0)
	for m := uint64(2); m <= cfg.MaxMultiple; m *= 2 {
		meas := eval(m)
		if meas.Coverage() >= cfg.CoverageTarget {
			lo, bestM, best = m, m, meas
			continue
		}
		hi = m
		break
	}
	if hi == 0 {
		// Never failed within the cap.
		return Threshold{Multiple: bestM, Unit: unit, Heat: heatOf(bestM), Coverage: best.Coverage()}, best
	}
	// Binary search the boundary in (lo, hi).
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		meas := eval(mid)
		if meas.Coverage() >= cfg.CoverageTarget {
			lo, bestM, best = mid, mid, meas
		} else {
			hi = mid
		}
	}
	return Threshold{Multiple: bestM, Unit: unit, Heat: heatOf(bestM), Coverage: best.Coverage()}, best
}
