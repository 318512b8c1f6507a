package hotstream

import (
	"math"

	"repro/internal/sequitur"
)

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
	unit := uniformUnit(totalRefs, totalAddrs)
	return Threshold{Multiple: multiple, Unit: unit, Heat: heatAt(multiple, unit)}
}

// uniformUnit is one unit uniform access: totalRefs / totalAddrs, floored
// at 1 (and 1 when no address was seen).
func uniformUnit(totalRefs, totalAddrs uint64) float64 {
	unit := 1.0
	if totalAddrs > 0 {
		unit = float64(totalRefs) / float64(totalAddrs)
	}
	return max(unit, 1)
}

// heatAt is the absolute heat of multiple unit uniform accesses,
// round(multiple·unit) floored at 1.
func heatAt(multiple uint64, unit float64) uint64 {
	return max(uint64(math.Round(float64(multiple)*unit)), 1)
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
// d is the frozen DAG of seq, read in place; every probe scans seq. The
// probes' detection passes share one window table, and each probe
// measures on the minimality trie its detection pass left there instead
// of building a second trie of the same streams.
func FindThreshold(d *sequitur.DAG, seq []uint64, totalRefs, totalAddrs uint64, cfg SearchConfig) (Threshold, *Measurement) {
	cfg = cfg.Normalized()
	unit := uniformUnit(totalRefs, totalAddrs)
	wt := newWindowTable()
	eval := func(m uint64) *Measurement {
		c := Config{MinLen: cfg.MinLen, MaxLen: cfg.MaxLen, Heat: heatAt(m, unit)}
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
	result := func() (Threshold, *Measurement) {
		return Threshold{Multiple: bestM, Unit: unit, Heat: heatAt(bestM, unit), Coverage: best.Coverage()}, best
	}
	if best.Coverage() < cfg.CoverageTarget {
		return result()
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
		return result()
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
	return result()
}
