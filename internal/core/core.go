// Package core is the public facade of the reproduction: one call runs the
// paper's full analysis pipeline over a raw data-reference trace —
//
//	trace → address abstraction (§3.1) → WPS₀ (SEQUITUR) → hot data
//	streams₀ (§2.3) → reduced trace → WPS₁ → hot data streams₁ → SFGs
//	(§3.3) → locality metrics (§2.4) → optimization potential (§5.4)
//
// — and returns everything the paper's tables and figures are computed
// from. See the examples/ directory for end-to-end usage.
package core

import (
	"sort"
	"time"

	"repro/internal/abstract"
	"repro/internal/cache"
	"repro/internal/hotstream"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/reduce"
	"repro/internal/trace"
)

// Options configures an analysis. The zero value uses the paper's
// parameters.
type Options struct {
	// HeapNaming selects the address abstraction (default: birth IDs,
	// the ⟨allocation site, global counter⟩ scheme of §5.1).
	HeapNaming abstract.Mode
	// MinStreamLen/MaxStreamLen bound hot data streams (paper: 2, 100).
	// They and CoverageTarget default as hotstream.SearchConfig.Normalized
	// does, the same rule the online engine applies.
	MinStreamLen, MaxStreamLen int
	// CoverageTarget is the hot-stream coverage constraint (paper: 0.90).
	CoverageTarget float64
	// ReduceLevels is the number of reduction iterations (paper: 1,
	// producing WPS₀ and WPS₁).
	ReduceLevels int
	// BlockSize is the cache block size for packing-efficiency metrics
	// (paper: 64).
	BlockSize int
	// Cache is the geometry for optimization-potential evaluation
	// (paper: 8K fully associative, 64-byte blocks).
	Cache cache.Config
	// FixedHeatMultiple pins the locality threshold to an explicit
	// unit-uniform-access multiple, bypassing the coverage-driven
	// search (useful for exploration; zero means search).
	FixedHeatMultiple uint64
	// SkipPotential disables the four cache simulations of Figure 9
	// (they dominate runtime for large traces when only representation
	// results are wanted).
	SkipPotential bool
	// Workers bounds the analysis-internal parallelism: the four
	// Figure-9 cache simulations, the skew/CDF/summary figure
	// computations, and per-thread analyses fan out over at most this
	// many goroutines. 1 (or less) runs fully sequentially; results are
	// bit-identical at any value — only wall-clock changes.
	Workers int
	// Obs attaches a metrics registry: per-stage duration histograms and
	// pprof stage labels. Nil falls back to obs.Default() (itself nil —
	// fully disabled — unless the process opted in). Instrumentation
	// never changes analysis results, only what is recorded about them;
	// it is excluded from option fingerprints for the same reason.
	Obs *obs.Registry
}

// registry resolves the effective metrics registry for a run.
func (o Options) registry() *obs.Registry {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

// Normalized returns the options with every zero/out-of-range field
// replaced by its default, exactly as Analyze applies them. Callers that
// fingerprint an analysis configuration (internal/store's memoization)
// use this so equivalent configurations key identically.
func (o Options) Normalized() Options {
	o.normalize()
	return o
}

func (o *Options) normalize() {
	w := hotstream.SearchConfig{
		MinLen: o.MinStreamLen, MaxLen: o.MaxStreamLen, CoverageTarget: o.CoverageTarget,
	}.Normalized()
	o.MinStreamLen, o.MaxStreamLen, o.CoverageTarget = w.MinLen, w.MaxLen, w.CoverageTarget
	if o.ReduceLevels < 1 {
		o.ReduceLevels = 1
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 64
	}
	if o.Cache.Size == 0 {
		o.Cache = cache.FullyAssociative8K
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Analysis is the complete result for one trace.
type Analysis struct {
	// TraceStats is Table 1's row.
	TraceStats trace.Stats
	// Abstraction holds the abstracted reference sequence and heap map.
	Abstraction *abstract.Result
	// Pipeline holds WPS₀/WPS₁, hot streams per level, SFGs, thresholds,
	// and coverage bookkeeping.
	Pipeline *reduce.Pipeline
	// AddressSkew and PCSkew are Figure 1's two panels.
	AddressSkew locality.SkewCurve
	PCSkew      locality.SkewCurve
	// Summary is Table 3's row (level-0 hot streams).
	Summary locality.Summary
	// SizeCDF and PackingCDF are Figures 6 and 7.
	SizeCDF    []locality.CDFPoint
	PackingCDF []locality.CDFPoint
	// Potential is Figure 9's row; zero when SkipPotential.
	Potential optim.Potential
	// AnalysisTime is the wall-clock cost of hot-stream detection and
	// threshold search (§5.2 reports seconds to a minute).
	AnalysisTime time.Duration

	opts Options
}

// Streams returns the level-0 hot data streams.
func (a *Analysis) Streams() []*hotstream.Stream {
	if len(a.Pipeline.Levels) == 0 {
		return nil
	}
	return a.Pipeline.Levels[0].Streams
}

// Threshold returns the level-0 exploitable-locality threshold (Table 2).
func (a *Analysis) Threshold() hotstream.Threshold {
	if len(a.Pipeline.Levels) == 0 {
		return hotstream.Threshold{}
	}
	return a.Pipeline.Levels[0].Threshold
}

// Coverage returns the fraction of references covered by level-0 hot
// streams.
func (a *Analysis) Coverage() float64 {
	if len(a.Pipeline.Levels) == 0 || a.Pipeline.Levels[0].Measurement == nil {
		return 0
	}
	return a.Pipeline.Levels[0].Measurement.Coverage()
}

// HotMembers returns the abstract names participating in level-0 hot
// streams.
func (a *Analysis) HotMembers() map[uint64]struct{} {
	return locality.StreamMembers(a.Streams())
}

// Analyze runs the full pipeline. Every phase runs as a named stage
// through the shared runner (internal/pipeline), so per-stage timings
// land in the run's obs registry.
func Analyze(b *trace.Buffer, opts Options) *Analysis {
	opts.normalize()
	reg := opts.registry()
	var stats trace.Stats
	var res *abstract.Result
	_ = pipeline.Run(reg,
		pipeline.Stage{Name: pipeline.StageStats, Run: func() error {
			stats = b.Stats()
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageAbstract, Run: func() error {
			res = abstract.New(opts.HeapNaming).Abstract(b)
			return nil
		}},
	)
	return analyzeAbstracted(reg, stats, res, opts)
}

// AnalyzeStream runs the full pipeline over an encoded trace stream
// without ever materializing the event buffer: Table-1 statistics and
// the address abstraction are computed in one pass as records decode,
// so peak memory excludes the raw event slice entirely (only the
// abstracted name/PC/address arrays the analysis needs remain). The
// result is identical to Analyze over the same records; the only
// possible error is the reader's.
//
// The single decode pass fuses statistics accumulation with
// abstraction, so it runs as the "abstract" stage; the "stats" stage is
// the accumulator finalization. Everything downstream is the same stage
// list Analyze runs.
func AnalyzeStream(r *trace.Reader, opts Options) (*Analysis, error) {
	opts.normalize()
	reg := opts.registry()
	acc := trace.NewStatsAccum()
	st := abstract.New(opts.HeapNaming).Streamer(1 << 16)
	var stats trace.Stats
	var res *abstract.Result
	if err := pipeline.Run(reg,
		pipeline.Stage{Name: pipeline.StageAbstract, Run: func() error {
			if err := r.ForEach(func(e trace.Event) error {
				acc.Add(e)
				st.Process(e)
				return nil
			}); err != nil {
				return err
			}
			res = st.Result()
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageStats, Run: func() error {
			stats = acc.Stats()
			return nil
		}},
	); err != nil {
		return nil, err
	}
	return analyzeAbstracted(reg, stats, res, opts), nil
}

// analyzeAbstracted is the shared pipeline tail: everything after trace statistics
// and abstraction, run as stages timed into reg. opts must already be
// normalized.
// Independent, order-free computations (the two skew curves; the summary
// and the two CDFs; the four Figure-9 simulations) fan out over
// opts.Workers; each task fills a distinct result field from shared
// read-only inputs, so the Analysis is bit-identical at any worker count.
func analyzeAbstracted(reg *obs.Registry, stats trace.Stats, res *abstract.Result, opts Options) *Analysis {
	a := &Analysis{opts: opts}
	a.TraceStats = stats
	a.Abstraction = res

	stages := []pipeline.Stage{
		{Name: pipeline.StageSkew, Run: func() error {
			return parallel.Do(opts.Workers,
				func() error { a.AddressSkew = locality.AddressSkew(a.Abstraction.Addrs); return nil },
				func() error { a.PCSkew = locality.PCSkew(a.Abstraction.PCs); return nil },
			)
		}},
		// Unnamed grouping stage: the reducer emits its own
		// sequitur/threshold/detect/measure stages per level through the
		// same runner, and its total wall clock is the §5.2 AnalysisTime.
		{Run: func() error {
			//lint:ignore determinism wall-clock feeds AnalysisTime, a reporting-only field; no analysis result depends on it
			start := time.Now()
			a.Pipeline = reduce.Run(reg, a.Abstraction.Names, a.TraceStats.Addresses, reduce.Options{
				MinLen:         opts.MinStreamLen,
				MaxLen:         opts.MaxStreamLen,
				CoverageTarget: opts.CoverageTarget,
				FixedMultiple:  opts.FixedHeatMultiple,
				Levels:         opts.ReduceLevels,
			})
			a.AnalysisTime = time.Since(start)
			return nil
		}},
		{Name: pipeline.StageSummary, Run: func() error {
			streams := a.Streams()
			return parallel.Do(opts.Workers,
				func() error {
					a.Summary = locality.Summarize(streams, a.Abstraction.Objects, opts.BlockSize)
					return nil
				},
				func() error { a.SizeCDF = locality.SizeCDF(streams); return nil },
				func() error {
					a.PackingCDF = locality.PackingCDF(streams, a.Abstraction.Objects, opts.BlockSize)
					return nil
				},
			)
		}},
	}
	if !opts.SkipPotential {
		stages = append(stages, pipeline.Stage{Name: pipeline.StagePotential, Run: func() error {
			a.Potential = optim.EvaluatePotential(
				a.Abstraction.Names, a.Abstraction.Addrs, a.Abstraction.Objects,
				a.Streams(), opts.Cache, opts.Workers)
			return nil
		}})
	}
	_ = pipeline.Run(reg, stages...)
	return a
}

// AnalyzePerThread splits a multi-threaded trace by thread and analyzes
// each thread's reference stream independently: §5.1's methodology for
// SQL Server ("the current system distinguishes data references between
// threads and constructs a separate WPS for each one"). Allocation
// records are shared, so every per-thread analysis sees the full heap
// map.
//
// Thread analyses are independent, so they fan out over opts.Workers
// goroutines (each also using opts.Workers internally); the per-thread
// results are keyed by thread ID and therefore identical at any worker
// count.
func AnalyzePerThread(b *trace.Buffer, opts Options) map[uint8]*Analysis {
	opts.normalize()
	parts := trace.SplitByThread(b)
	threads := make([]uint8, 0, len(parts))
	for t := range parts {
		threads = append(threads, t)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
	analyses, _ := parallel.Map(opts.Workers, len(threads), func(i int) (*Analysis, error) {
		return Analyze(parts[threads[i]], opts), nil
	})
	out := make(map[uint8]*Analysis, len(threads))
	for i, t := range threads {
		out[t] = analyses[i]
	}
	return out
}

// Attribution computes Figure 8's sweep for this analysis, fanning the
// per-geometry simulations out over the analysis's worker budget.
func (a *Analysis) Attribution(cfgs []cache.Config) []optim.AttributionPoint {
	return optim.AttributionSweep(a.Abstraction.Names, a.Abstraction.Addrs, a.HotMembers(), cfgs, a.opts.Workers)
}
