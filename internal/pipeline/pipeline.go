// Package pipeline is the shared stage runner behind every analysis
// entry point. The paper's WPS→hot-stream→locality analysis is one
// logical pipeline — Table-1 statistics → address abstraction → SEQUITUR
// → threshold search → detection → exact measurement → locality summary
// — but it has three drivers (batch core.Analyze, streaming
// core.AnalyzeStream, and the online engine's Snapshot). This package is
// the single place the phases execute: each driver assembles named Stage
// values and hands them to Run with its metrics registry, so per-stage
// wall time and pprof labels behave identically regardless of which
// frontend started the run. Stages close over whatever else they need
// (options, the worker budget); the runner carries only the registry.
//
// Instrumentation is opt-in and cheap: with no obs.Registry, a stage run
// is a function call; with one, each named stage records a sample to the
// duration histogram "pipeline.stage.<name>" and runs under a
// runtime/pprof label stage=<name>, so CPU profiles of a live locserve
// attribute samples to pipeline phases.
package pipeline

import (
	"context"
	"runtime/pprof"

	"repro/internal/obs"
)

// Canonical stage names. Every driver uses these for the phases it runs,
// so metric names stay comparable across batch, streaming, and online
// frontends (and the README metric reference stays one table).
const (
	// StageStats finalizes Table-1 trace statistics.
	StageStats = "stats"
	// StageAbstract runs address abstraction (§3.1); the streaming
	// drivers fuse decode + statistics accumulation into this stage.
	StageAbstract = "abstract"
	// StageSkew computes the Figure-1 reference-skew curves (batch only).
	StageSkew = "skew"
	// StageSequitur is grammar construction: SEQUITUR compression in the
	// batch reducer, the DAG freeze in the online engine.
	StageSequitur = "sequitur"
	// StageThreshold is the exploitable-locality threshold search (§2.3).
	StageThreshold = "threshold"
	// StageDetect is hot-data-stream detection over the grammar DAG.
	StageDetect = "detect"
	// StageMeasure is exact stream measurement (and, in the reducer,
	// reduced-trace emission plus SFG construction).
	StageMeasure = "measure"
	// StageSummary computes the locality metric summaries (§2.4).
	StageSummary = "summary"
	// StagePotential runs the Figure-9 optimization-potential
	// simulations (batch only, skippable).
	StagePotential = "potential"
)

// StageTimerName returns the obs timer name recording a stage's
// duration samples.
func StageTimerName(stage string) string { return obs.StagePrefix + stage }

// BatchStages returns the canonical stage-name sequence of a batch
// analysis (core.Analyze / core.AnalyzeStream): the list drivers
// pre-register so a stage that silently stops executing shows up as a
// zero-sample row in the timing table.
func BatchStages(skipPotential bool) []string {
	s := []string{
		StageStats, StageAbstract, StageSkew,
		StageSequitur, StageThreshold, StageDetect, StageMeasure,
		StageSummary,
	}
	if !skipPotential {
		s = append(s, StagePotential)
	}
	return s
}

// SnapshotStages returns the canonical stage-name sequence of an online
// snapshot (online.Engine.Snapshot): abstraction is incremental during
// ingest, so the snapshot path starts at statistics finalization.
func SnapshotStages() []string {
	return []string{
		StageStats, StageSequitur, StageThreshold, StageDetect,
		StageMeasure, StageSummary,
	}
}

// A Stage is one named pipeline phase. Name selects the timer and pprof
// label; an empty Name runs the function without instrumentation — the
// grouping construct for phases (like the trace reducer) that emit their
// own finer-grained named stages through the same runner.
type Stage struct {
	Name string
	Run  func() error
}

// Run executes stages in order through the shared runner, each under its
// timer and pprof label when reg is non-nil; a nil reg runs them plain.
// The first stage error stops the run and is returned; completed stages
// keep their effects.
func Run(reg *obs.Registry, stages ...Stage) error {
	for _, s := range stages {
		if err := runStage(reg, s); err != nil {
			return err
		}
	}
	return nil
}

// Time runs one named phase through the runner: the convenience form
// sub-phase emitters (the trace reducer's per-level loop) use.
func Time(reg *obs.Registry, name string, fn func() error) error {
	return runStage(reg, Stage{Name: name, Run: fn})
}

func runStage(reg *obs.Registry, s Stage) error {
	if reg == nil || s.Name == "" {
		// Disabled (or grouping stage): one nil-check, no labels.
		return s.Run()
	}
	stop := reg.Timer(StageTimerName(s.Name)).Start()
	defer stop()
	var err error
	pprof.Do(context.Background(), pprof.Labels("stage", s.Name), func(context.Context) {
		err = s.Run()
	})
	return err
}

// Preregister creates the timer for every named stage up front so the
// timing table sees phases that never ran. No-op without a registry.
func Preregister(reg *obs.Registry, stages []string) {
	for _, s := range stages {
		reg.Timer(StageTimerName(s))
	}
}
