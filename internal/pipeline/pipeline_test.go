package pipeline

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

// TestNilRegistryRuns proves the zero path: a nil registry runs stages
// in order with no instrumentation.
func TestNilRegistryRuns(t *testing.T) {
	var order []string
	err := Run(nil,
		Stage{Name: StageStats, Run: func() error { order = append(order, "a"); return nil }},
		Stage{Run: func() error { order = append(order, "b"); return nil }},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if err := Time(nil, "x", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunRecordsTimers(t *testing.T) {
	reg := obs.New()
	err := Run(reg,
		Stage{Name: StageDetect, Run: func() error { return nil }},
		Stage{Name: StageMeasure, Run: func() error { return nil }},
		Stage{Run: func() error { return nil }}, // grouping stage: no timer
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Timer(StageTimerName(StageDetect)).Count(); got != 1 {
		t.Fatalf("detect samples = %d, want 1", got)
	}
	if got := reg.Timer(StageTimerName(StageMeasure)).Count(); got != 1 {
		t.Fatalf("measure samples = %d, want 1", got)
	}
	snap := reg.Snapshot()
	if len(snap.Timers) != 2 {
		t.Fatalf("unexpected timers: %v", snap.Timers)
	}
}

func TestRunStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := Run(nil,
		Stage{Name: StageStats, Run: func() error { ran++; return nil }},
		Stage{Name: StageAbstract, Run: func() error { ran++; return boom }},
		Stage{Name: StageSkew, Run: func() error { ran++; return nil }},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d stages, want 2", ran)
	}
}

// TestStageSequences pins the canonical stage lists: core's
// TestEveryStageReportsSamples and the README metric reference both
// assume these exact names.
func TestStageSequences(t *testing.T) {
	want := []string{"stats", "abstract", "skew", "sequitur", "threshold", "detect", "measure", "summary", "potential"}
	got := BatchStages(false)
	if len(got) != len(want) {
		t.Fatalf("BatchStages = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BatchStages = %v, want %v", got, want)
		}
	}
	if s := BatchStages(true); len(s) != len(want)-1 || s[len(s)-1] != "summary" {
		t.Fatalf("BatchStages(skip) = %v", s)
	}
	snap := SnapshotStages()
	wantSnap := []string{"stats", "sequitur", "threshold", "detect", "measure", "summary"}
	for i := range wantSnap {
		if snap[i] != wantSnap[i] {
			t.Fatalf("SnapshotStages = %v, want %v", snap, wantSnap)
		}
	}
}

func TestPreregister(t *testing.T) {
	reg := obs.New()
	Preregister(reg, BatchStages(true))
	snap := reg.Snapshot()
	if len(snap.Timers) != len(BatchStages(true)) {
		t.Fatalf("preregistered %d timers, want %d", len(snap.Timers), len(BatchStages(true)))
	}
	for _, s := range BatchStages(true) {
		ts, ok := snap.Timers[StageTimerName(s)]
		if !ok || ts.Count != 0 {
			t.Fatalf("stage %s not preregistered as zero-sample: %+v", s, snap.Timers)
		}
	}
	Preregister(nil, BatchStages(true)) // nil registry: no-op, no panic
}
