// Package reduce implements the trace-reduction pipeline of §3.2: the
// abstracted trace is compressed to WPS₀; hot data streams₀ are detected
// and used as an abstraction mechanism to regenerate a reduced trace —
// stream occurrences encoded as single symbols, cold references (noise)
// elided — which SEQUITUR recompresses to the much smaller WPS₁, on which
// hot data streams₁ are detected, and so on.
//
// Each iteration produces a more compact representation and fewer, hotter
// streams, but covers less of the original reference sequence: WPS₀ holds
// 100% of references, streams₀ ≈90%, WPS₁ ≈90%, streams₁ ≈81%. The
// pipeline tracks this bookkeeping and builds the Stream Flow Graph at
// each level.
package reduce

import (
	"repro/internal/hotstream"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sfg"
	"repro/internal/wps"
)

// Options configures the pipeline.
type Options struct {
	// MinLen/MaxLen bound hot-stream lengths (paper: 2, 100).
	MinLen, MaxLen int
	// CoverageTarget drives each level's threshold search (paper: 0.90).
	CoverageTarget float64
	// FixedMultiple, when nonzero, pins the heat threshold to this
	// unit-uniform-access multiple instead of searching for the largest
	// multiple meeting the coverage target.
	FixedMultiple uint64
	// Levels is the number of reduction iterations: 1 produces WPS₀ and
	// WPS₁ (the paper's configuration); 0 stops at WPS₀.
	Levels int
}

// DefaultOptions mirrors the paper: one reduction level, and the zero
// window and coverage fields, which Run reads as the paper's values.
func DefaultOptions() Options { return Options{Levels: 1} }

// Level is one pipeline stage: WPS_i, hot data streams_i, and SFG_i.
type Level struct {
	// Index is the subscript i.
	Index int
	// WPS is the level's Whole Program Stream.
	WPS *wps.WPS
	// Threshold is the exploitable-locality threshold found at this
	// level.
	Threshold hotstream.Threshold
	// Streams are the hot data streams with exact measured statistics.
	Streams []*hotstream.Stream
	// Measurement holds coverage and the reduced trace feeding the next
	// level.
	Measurement *hotstream.Measurement
	// SFG is the Stream Flow Graph over this level's streams.
	SFG *sfg.Graph
	// StreamBase is the symbol base used to encode this level's streams
	// in the reduced trace.
	StreamBase uint64
	// OriginalCoverage is the fraction of the *original* (level-0)
	// references represented by this level's hot streams: the 90%/81%
	// series of §3.2.
	OriginalCoverage float64
	// RefWeight[i] is the number of original references one occurrence
	// of stream i stands for.
	RefWeight []uint64
}

// Pipeline is the full reduction result.
type Pipeline struct {
	// Levels[i] corresponds to WPS_i.
	Levels []Level
	// OriginalRefs is the level-0 reference count.
	OriginalRefs uint64
}

// Run executes the pipeline on an abstracted name sequence. totalAddrs is
// the number of distinct data addresses in the original trace (it
// normalizes the level-0 threshold to unit-uniform-access multiples).
// Zero or out-of-range window and coverage fields take the defaults of
// hotstream.SearchConfig.Normalized.
//
// Each level's four phases — SEQUITUR compression, threshold search,
// detection (skipped when the search already detected at the chosen
// heat), exact measurement — run through the shared stage runner, so
// with a non-nil reg per-phase wall time lands in the
// "pipeline.stage.*" timers and CPU samples carry stage labels. A nil
// reg runs the phases plain; the result is identical either way (the
// runner only wraps, it never reorders).
func Run(reg *obs.Registry, names []uint64, totalAddrs uint64, opts Options) *Pipeline {
	scfg := hotstream.SearchConfig{
		MinLen: opts.MinLen, MaxLen: opts.MaxLen, CoverageTarget: opts.CoverageTarget,
	}.Normalized()

	p := &Pipeline{OriginalRefs: uint64(len(names))}
	cur := names
	curAddrs := totalAddrs
	// weight[sym] is how many original references symbol sym represents
	// at the current level (level 0: every name weighs 1); inputWeight
	// is the number of original references the current input represents.
	var weight map[uint64]uint64
	inputWeight := uint64(len(names))

	for lvl := 0; lvl <= opts.Levels; lvl++ {
		var w *wps.WPS
		_ = pipeline.Time(reg, pipeline.StageSequitur, func() error {
			w = wps.Build(cur, wps.Options{MaxStreamLen: scfg.MaxLen})
			return nil
		})
		level := Level{Index: lvl, WPS: w}

		if len(cur) == 0 {
			p.Levels = append(p.Levels, level)
			break
		}
		var th hotstream.Threshold
		var searched *hotstream.Measurement
		_ = pipeline.Time(reg, pipeline.StageThreshold, func() error {
			if opts.FixedMultiple > 0 {
				th = hotstream.FixedThreshold(opts.FixedMultiple, uint64(len(cur)), curAddrs)
			} else {
				th, searched = hotstream.FindThreshold(w.DAG, cur, uint64(len(cur)), curAddrs, scfg)
			}
			return nil
		})
		level.Threshold = th

		// Measure at the chosen heat once more, this time emitting the
		// reduced trace for the next level. A search has already
		// detected and measured at this heat, and its measured streams
		// stand in for a fresh Detect: each kept stream had at least two
		// non-overlapping occurrences in this same input, and the
		// matcher counts every stream's occurrences independently of the
		// other streams, so re-measuring the kept set alone drops
		// nothing. The frequencies and gaps are then the same, coverage
		// is the union over the same kept set (which is what the search
		// measurement reported after its own drop), and the dense IDs
		// come out in the same order.
		cfg := hotstream.Config{MinLen: scfg.MinLen, MaxLen: scfg.MaxLen, Heat: th.Heat}
		var streams []*hotstream.Stream
		_ = pipeline.Time(reg, pipeline.StageDetect, func() error {
			if searched != nil {
				streams = searched.Streams
			} else {
				streams = hotstream.Detect(w.DAG, cfg)
			}
			return nil
		})
		base := maxSymbol(cur) + 1
		var meas *hotstream.Measurement
		_ = pipeline.Time(reg, pipeline.StageMeasure, func() error {
			meas = hotstream.Measure(cur, streams, cfg, base, true)
			level.SFG = sfg.Build(meas.Reduced, base, len(meas.Streams))
			return nil
		})
		level.Streams = meas.Streams
		level.Measurement = meas
		level.Threshold.Coverage = meas.Coverage()
		level.StreamBase = base

		// Original-reference weights for this level's streams.
		level.RefWeight = make([]uint64, len(meas.Streams))
		for i, s := range meas.Streams {
			var wsum uint64
			for _, sym := range s.Seq {
				if weight == nil {
					wsum++
				} else {
					wsum += weight[sym]
				}
			}
			level.RefWeight[i] = wsum
		}
		// Original-reference coverage: this level's union coverage of
		// its own input, scaled by the fraction of original references
		// its input still represents (exact at level 0; at deeper
		// levels the per-position weighting is approximated by the
		// unweighted union, which is how the 90% -> 81% cascade of
		// §3.2 is accounted).
		if p.OriginalRefs > 0 {
			level.OriginalCoverage = float64(inputWeight) / float64(p.OriginalRefs) * meas.Coverage()
		}

		p.Levels = append(p.Levels, level)
		if lvl == opts.Levels || len(meas.Reduced) == 0 || len(meas.Streams) == 0 {
			break
		}

		// Prepare the next level: the reduced trace becomes the input
		// sequence, stream symbols become the "addresses".
		next := make(map[uint64]uint64, len(meas.Streams))
		for i := range meas.Streams {
			next[base+uint64(i)] = level.RefWeight[i]
		}
		weight = next
		inputWeight = 0
		for _, sym := range meas.Reduced {
			inputWeight += next[sym]
		}
		cur = meas.Reduced
		curAddrs = uint64(len(meas.Streams))
	}
	return p
}

func maxSymbol(vs []uint64) uint64 {
	var m uint64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// SizeSeries returns, per level, the WPS sizes plus the SFG size: the bars
// of Figure 5 beyond the raw trace.
type SizeSeries struct {
	Level     int
	WPSBytes  uint64
	SFGBytes  uint64
	Rules     int
	Symbols   int
	InputLen  uint64
	Streams   int
	Threshold uint64
}

// Sizes summarizes each level for Figure 5.
func (p *Pipeline) Sizes() []SizeSeries {
	out := make([]SizeSeries, 0, len(p.Levels))
	for _, l := range p.Levels {
		st := l.WPS.Size()
		s := SizeSeries{
			Level:    l.Index,
			WPSBytes: st.ASCIIBytes,
			Rules:    st.Rules,
			Symbols:  st.Symbols,
			InputLen: st.InputLen,
			Streams:  len(l.Streams),
		}
		s.Threshold = l.Threshold.Multiple
		if l.SFG != nil {
			s.SFGBytes = l.SFG.SizeBytes()
		}
		out = append(out, s)
	}
	return out
}
