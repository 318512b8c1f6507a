package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/abstract"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
	"repro/internal/workload"
)

func analyze(t *testing.T, bench string, n int, opts Options) *Analysis {
	t.Helper()
	b, err := workload.Generate(bench, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(b, opts)
}

// encodeTrace returns b in the binary record format.
func encodeTrace(t *testing.T, b *trace.Buffer) []byte {
	t.Helper()
	var enc bytes.Buffer
	w := trace.NewWriter(&enc)
	if err := w.WriteAll(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return enc.Bytes()
}

func TestAnalyzeEndToEnd(t *testing.T) {
	a := analyze(t, "boxsim", 40_000, Options{})
	if a.TraceStats.Refs == 0 {
		t.Fatal("no references")
	}
	if len(a.Streams()) == 0 {
		t.Fatal("no hot streams")
	}
	if a.Coverage() < 0.5 {
		t.Errorf("coverage = %v", a.Coverage())
	}
	if a.Threshold().Multiple < 1 {
		t.Errorf("threshold = %+v", a.Threshold())
	}
	if len(a.Pipeline.Levels) < 2 {
		t.Errorf("levels = %d, want WPS0 and WPS1", len(a.Pipeline.Levels))
	}
	if a.Summary.Streams != len(a.Streams()) {
		t.Errorf("summary streams %d != %d", a.Summary.Streams, len(a.Streams()))
	}
	if a.Potential.Base <= 0 {
		t.Error("potential not evaluated")
	}
	if len(a.SizeCDF) == 0 || len(a.PackingCDF) == 0 {
		t.Error("CDFs missing")
	}
	if a.AddressSkew.Refs == 0 || a.PCSkew.Refs == 0 {
		t.Error("skew curves missing")
	}
	if a.AnalysisTime <= 0 {
		t.Error("analysis time not recorded")
	}
}

func TestAnalyzeSkipPotential(t *testing.T) {
	a := analyze(t, "197.parser", 20_000, Options{SkipPotential: true})
	if a.Potential.Base != 0 {
		t.Error("potential must be skipped")
	}
}

func TestHotMembersSubsetOfObjects(t *testing.T) {
	a := analyze(t, "252.eon", 20_000, Options{SkipPotential: true})
	for name := range a.HotMembers() {
		if _, ok := a.Abstraction.Objects[name]; !ok {
			t.Fatalf("hot member %d not in heap map", name)
		}
	}
}

func TestAttribution(t *testing.T) {
	a := analyze(t, "300.twolf", 30_000, Options{SkipPotential: true})
	pts := a.Attribution([]cache.Config{
		{Size: 1024, BlockSize: 64, Assoc: 0},
		{Size: 8192, BlockSize: 64, Assoc: 0},
	})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.MissRate < 0 || p.HotMissPct < 0 || p.HotMissPct > 100 {
			t.Errorf("point = %+v", p)
		}
	}
}

func TestWPS1SmallerThanWPS0(t *testing.T) {
	a := analyze(t, "boxsim", 40_000, Options{SkipPotential: true})
	s0 := a.Pipeline.Levels[0].WPS.Size()
	s1 := a.Pipeline.Levels[1].WPS.Size()
	if s1.ASCIIBytes >= s0.ASCIIBytes {
		t.Errorf("WPS1 %d >= WPS0 %d bytes", s1.ASCIIBytes, s0.ASCIIBytes)
	}
	// WPS0 is much smaller than the raw trace (Figure 5's first gap).
	if s0.ASCIIBytes >= a.TraceStats.TraceBytes {
		t.Errorf("WPS0 %d >= trace %d bytes", s0.ASCIIBytes, a.TraceStats.TraceBytes)
	}
}

func TestRawAddressModeBlowsUpGrammar(t *testing.T) {
	// §3.1: abstracting addresses increases regularity; raw addresses
	// obfuscate patterns and inflate the WPS.
	b, err := workload.Generate("boxsim", 20_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	abs := Analyze(b, Options{SkipPotential: true})
	raw := Analyze(b, Options{SkipPotential: true, HeapNaming: abstract.RawAddress})
	sa := abs.Pipeline.Levels[0].WPS.Size()
	sr := raw.Pipeline.Levels[0].WPS.Size()
	if sr.ASCIIBytes <= sa.ASCIIBytes {
		t.Errorf("raw WPS %dB not larger than abstracted %dB", sr.ASCIIBytes, sa.ASCIIBytes)
	}
}

func TestRegeneratedSequenceMatchesAbstraction(t *testing.T) {
	// WPS must represent the abstracted trace exactly (losslessness of
	// the grammar, as opposed to the lossy address abstraction).
	a := analyze(t, "197.parser", 15_000, Options{SkipPotential: true})
	regen := a.Pipeline.Levels[0].WPS.DAG.Expand()
	names := a.Abstraction.Names
	if len(regen) != len(names) {
		t.Fatalf("regenerated %d names, want %d", len(regen), len(names))
	}
	for i := range names {
		if regen[i] != names[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestOptionsNormalization(t *testing.T) {
	var o Options
	o.normalize()
	if o.MinStreamLen != 2 || o.MaxStreamLen != 100 {
		t.Errorf("lengths = %d,%d", o.MinStreamLen, o.MaxStreamLen)
	}
	if o.CoverageTarget != 0.90 || o.BlockSize != 64 {
		t.Errorf("target=%v block=%d", o.CoverageTarget, o.BlockSize)
	}
	if o.Cache != (cache.Config{Size: 8192, BlockSize: 64, Assoc: 0}) {
		t.Errorf("cache = %+v", o.Cache)
	}
	if o.ReduceLevels != 1 {
		t.Errorf("levels = %d", o.ReduceLevels)
	}

	// The window and coverage target normalize exactly as the online
	// engine's do (online.TestOptionsNormalize): a raised floor never
	// inverts the window, and NaN is out of range.
	cases := []struct {
		name             string
		in               Options
		wantMin, wantMax int
		wantCoverage     float64
	}{
		{"floor above default cap", Options{MinStreamLen: 150}, 150, 150, 0.90},
		{"floor above explicit smaller cap", Options{MinStreamLen: 150, MaxStreamLen: 80}, 150, 150, 0.90},
		{"NaN coverage target", Options{CoverageTarget: math.NaN()}, 2, 100, 0.90},
	}
	for _, tc := range cases {
		o := tc.in.Normalized()
		if o.MinStreamLen != tc.wantMin || o.MaxStreamLen != tc.wantMax || o.CoverageTarget != tc.wantCoverage {
			t.Errorf("%s: window [%d, %d] coverage %v, want [%d, %d] %v", tc.name,
				o.MinStreamLen, o.MaxStreamLen, o.CoverageTarget, tc.wantMin, tc.wantMax, tc.wantCoverage)
		}
	}
}

func TestAnalyzePerThread(t *testing.T) {
	b, err := workload.Generate("sqlserver", 40_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	per := AnalyzePerThread(b, Options{SkipPotential: true})
	if len(per) < 2 {
		t.Fatalf("threads = %d, want the multi-session workload split", len(per))
	}
	var total uint64
	for th, a := range per {
		if a.TraceStats.Refs == 0 {
			t.Errorf("thread %d: empty analysis", th)
		}
		total += a.TraceStats.Refs
		// Every per-thread heap map must resolve its references (alloc
		// records are replicated).
		if a.Abstraction.UnknownRefs > 0 {
			t.Errorf("thread %d: %d unknown refs", th, a.Abstraction.UnknownRefs)
		}
	}
	if total != b.Stats().Refs {
		t.Errorf("per-thread refs %d != total %d", total, b.Stats().Refs)
	}
}

func TestEmptyTrace(t *testing.T) {
	a := Analyze(trace.NewBuffer(0), Options{})
	if len(a.Streams()) != 0 || a.Coverage() != 0 {
		t.Error("empty trace must produce empty analysis")
	}
}

// comparable captures every analysis output the parallel engine touches;
// pointer-free so reflect.DeepEqual compares values.
type comparableAnalysis struct {
	Stats      trace.Stats
	AddrSkew   float64
	PCSkew     float64
	Summary    interface{}
	SizeCDF    interface{}
	PackingCDF interface{}
	Potential  interface{}
	Threshold  uint64
	Streams    int
	Coverage   float64
	Names      []uint64
}

func comparableOf(a *Analysis) comparableAnalysis {
	return comparableAnalysis{
		Stats:      a.TraceStats,
		AddrSkew:   a.AddressSkew.Locality90,
		PCSkew:     a.PCSkew.Locality90,
		Summary:    a.Summary,
		SizeCDF:    a.SizeCDF,
		PackingCDF: a.PackingCDF,
		Potential:  a.Potential,
		Threshold:  a.Threshold().Multiple,
		Streams:    len(a.Streams()),
		Coverage:   a.Coverage(),
		Names:      a.Abstraction.Names,
	}
}

// TestAnalyzeWorkersDeterministic is the engine's core guarantee: the
// analysis is bit-identical at any worker count.
func TestAnalyzeWorkersDeterministic(t *testing.T) {
	b, err := workload.Generate("boxsim", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := comparableOf(Analyze(b, Options{Workers: 1}))
	for _, workers := range []int{2, 4, 13} {
		got := comparableOf(Analyze(b, Options{Workers: workers}))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: analysis differs from sequential", workers)
		}
	}
}

// TestAnalyzeStreamMatchesAnalyze asserts the streaming entry point —
// stats and abstraction folded into one decode pass, no event buffer —
// produces the identical analysis to the in-memory path.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	b, err := workload.Generate("boxsim", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeTrace(t, b)
	want := comparableOf(Analyze(b, Options{Workers: 1}))
	got, err := AnalyzeStream(trace.NewReader(bytes.NewReader(enc)), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparableOf(got), want) {
		t.Error("streaming analysis differs from in-memory analysis")
	}
}

func TestAnalyzeStreamCorrupt(t *testing.T) {
	enc := []byte{0xFF, 1, 2} // unknown kind
	if _, err := AnalyzeStream(trace.NewReader(bytes.NewReader(enc)), Options{}); err == nil {
		t.Fatal("expected decode error")
	}
}

// TestAnalyzePerThreadWorkersDeterministic asserts concurrent per-thread
// analyses match the sequential split exactly, thread by thread.
func TestAnalyzePerThreadWorkersDeterministic(t *testing.T) {
	b, err := workload.Generate("sqlserver", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := AnalyzePerThread(b, Options{SkipPotential: true, Workers: 1})
	par := AnalyzePerThread(b, Options{SkipPotential: true, Workers: 4})
	if len(par) != len(seq) {
		t.Fatalf("threads: %d parallel vs %d sequential", len(par), len(seq))
	}
	for th, a := range seq {
		pa, ok := par[th]
		if !ok {
			t.Fatalf("thread %d missing from parallel result", th)
		}
		if !reflect.DeepEqual(comparableOf(pa), comparableOf(a)) {
			t.Errorf("thread %d: parallel analysis differs", th)
		}
	}
}

// TestEveryStageReportsSamples: both batch entry points run every
// pipeline stage through the shared runner, so each stage's timer in
// the run's registry holds at least one sample. A stage that silently
// stops executing, or an entry point that stops routing through the
// runner, leaves its row at zero (or missing) in `-stage-timing`.
func TestEveryStageReportsSamples(t *testing.T) {
	b, err := workload.Generate("boxsim", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeTrace(t, b)
	stages := []string{
		pipeline.StageStats, pipeline.StageAbstract, pipeline.StageSkew,
		pipeline.StageSequitur, pipeline.StageThreshold, pipeline.StageDetect,
		pipeline.StageMeasure, pipeline.StageSummary, pipeline.StagePotential,
	}
	for _, tc := range []struct {
		name string
		run  func(reg *obs.Registry) error
	}{
		{"Analyze", func(reg *obs.Registry) error {
			Analyze(b, Options{Obs: reg})
			return nil
		}},
		{"AnalyzeStream", func(reg *obs.Registry) error {
			_, err := AnalyzeStream(trace.NewReader(bytes.NewReader(enc)), Options{Obs: reg})
			return err
		}},
	} {
		reg := obs.New()
		if err := tc.run(reg); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		timers := reg.Snapshot().Timers
		for _, s := range stages {
			if n := timers[pipeline.StageTimerName(s)].Count; n == 0 {
				t.Errorf("%s: stage %q reports no samples", tc.name, s)
			}
		}
	}
}
