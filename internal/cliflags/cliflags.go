// Package cliflags centralizes the flag groups every cmd/* driver used
// to re-declare by hand: trace/benchmark input selection, the shared
// analysis parameters, the worker-count knob, and the observability
// switch. One declaration per group means one set of names, one set of
// defaults, and one help string — drivers that used to drift apart
// (drill and locdiff once built core.Options field-by-field with
// different defaults) now construct their options through the same
// constructors the rest of the pipeline uses.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/hotstream"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Input is the trace-source flag group: a generated benchmark or an
// on-disk trace file, with the generator's size and seed.
type Input struct {
	Bench string
	Trace string
	Refs  int
	Seed  int64
}

// Inputs registers the -bench/-trace/-refs/-seed group on fs.
func Inputs(fs *flag.FlagSet) *Input {
	in := GenFlags(fs)
	fs.StringVar(&in.Trace, "trace", "", "trace file to analyze")
	return in
}

// GenFlags registers only the generator half of the group
// (-bench/-refs/-seed) — for drivers like tracegen that produce traces
// rather than read them, so they share the generator's names and
// defaults without advertising a -trace flag they cannot honor.
func GenFlags(fs *flag.FlagSet) *Input {
	in := &Input{}
	fs.StringVar(&in.Bench, "bench", "", "benchmark to generate and analyze")
	fs.IntVar(&in.Refs, "refs", 200_000, "target references when generating")
	fs.Int64Var(&in.Seed, "seed", 1, "generator seed")
	return in
}

// Generate runs the workload generator for the selected benchmark.
func (in *Input) Generate() (*trace.Buffer, error) {
	return workload.Generate(in.Bench, in.Refs, in.Seed)
}

// Validate checks that exactly one source is selected.
func (in *Input) Validate() error {
	if (in.Bench == "") == (in.Trace == "") {
		return errors.New("exactly one of -bench or -trace is required")
	}
	return nil
}

// Buffer materializes the selected input as an event buffer: generated
// for -bench, fully decoded for -trace.
func (in *Input) Buffer() (*trace.Buffer, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Bench != "" {
		return workload.Generate(in.Bench, in.Refs, in.Seed)
	}
	f, err := os.Open(in.Trace)
	if err != nil {
		return nil, err
	}
	b, err := trace.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return b, err
}

// Analyze runs the shared analysis pipeline over the selected input.
// Generated benchmarks analyze in memory (core.Analyze); trace files
// stream straight off disk (core.AnalyzeStream), so files larger than
// memory work. Both paths execute the same stage list.
func (in *Input) Analyze(opts core.Options) (*core.Analysis, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Bench != "" {
		b, err := workload.Generate(in.Bench, in.Refs, in.Seed)
		if err != nil {
			return nil, err
		}
		return core.Analyze(b, opts), nil
	}
	f, err := os.Open(in.Trace)
	if err != nil {
		return nil, err
	}
	a, err := core.AnalyzeStream(trace.NewReader(f), opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return a, err
}

// Analysis is the shared analysis-parameter flag group. Defaults are
// the paper's: streams of 2..100 symbols, a 90% coverage target, a
// searched threshold, 64-byte cache blocks.
type Analysis struct {
	MinLen        int
	MaxLen        int
	Coverage      float64
	FixedMultiple uint64
	Block         int
}

// AnalysisFlags registers the -min-len/-max-len/-coverage/
// -fixed-multiple/-block group on fs. The window and coverage defaults
// are hotstream's, so the help text shows the values the pipeline
// would pick anyway.
func AnalysisFlags(fs *flag.FlagSet) *Analysis {
	a := &Analysis{}
	def := hotstream.SearchConfig{}.Normalized()
	fs.IntVar(&a.MinLen, "min-len", def.MinLen, "minimum hot-stream length")
	fs.IntVar(&a.MaxLen, "max-len", def.MaxLen, "maximum hot-stream length")
	fs.Float64Var(&a.Coverage, "coverage", def.CoverageTarget, "hot-stream coverage target for the threshold search")
	fs.Uint64Var(&a.FixedMultiple, "fixed-multiple", 0, "pin the heat threshold to this unit-uniform-access multiple instead of searching")
	fs.IntVar(&a.Block, "block", 64, "cache block size for packing-efficiency metrics")
	return a
}

// CoreOptions renders the group as batch-pipeline options. Fields the
// group does not govern (SkipPotential, Workers, ReduceLevels, ...)
// stay zero for the caller to set.
func (a *Analysis) CoreOptions() core.Options {
	return core.Options{
		MinStreamLen:      a.MinLen,
		MaxStreamLen:      a.MaxLen,
		CoverageTarget:    a.Coverage,
		FixedHeatMultiple: a.FixedMultiple,
		BlockSize:         a.Block,
	}
}

// OnlineOptions renders the group as online-engine options — the same
// parameter mapping CoreOptions uses, so a server and its batch oracle
// cannot diverge.
func (a *Analysis) OnlineOptions() online.Options {
	return online.Options{
		MinStreamLen:      a.MinLen,
		MaxStreamLen:      a.MaxLen,
		CoverageTarget:    a.Coverage,
		FixedHeatMultiple: a.FixedMultiple,
		BlockSize:         a.Block,
	}
}

// WorkersFlag registers the -workers knob on fs.
func WorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "goroutines for analysis-internal parallelism (0 = GOMAXPROCS, 1 = sequential; results are identical at any value)")
}

// Workers normalizes a parsed -workers value (0 or less selects one
// worker per CPU).
func Workers(n int) int { return parallel.Workers(n) }

// Obs is the observability flag group.
type Obs struct {
	StageTiming bool
}

// ObsFlags registers the -stage-timing switch on fs.
func ObsFlags(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.BoolVar(&o.StageTiming, "stage-timing", false, "record per-stage wall time and print the stage timing table to stderr after the run")
	return o
}

// Setup opts the process into observability when requested: the default
// registry is enabled and every canonical batch stage is preregistered,
// so a stage that never runs shows up as a zero-sample row in the
// report. skipPotential mirrors the command's own setting so the
// potential row is only expected when it will run.
func (o *Obs) Setup(skipPotential bool) {
	if !o.StageTiming {
		return
	}
	pipeline.Preregister(obs.EnableDefault(), pipeline.BatchStages(skipPotential))
}

// Report writes the stage timing table to w when -stage-timing is on.
func (o *Obs) Report(w io.Writer) error {
	if !o.StageTiming {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return obs.WriteStageTable(w, obs.Default())
}
