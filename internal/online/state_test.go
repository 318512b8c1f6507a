package online

import (
	"bytes"
	"testing"
)

// TestEngineStateHandoff pins the invariant drain/rebalance relies on:
// ingest half a trace, serialize the engine, restore it, ingest the
// rest — the final snapshot must be byte-identical to an engine that
// saw the whole stream uninterrupted. Exercised across naming modes
// and eviction settings (eviction included: each
// layer's codec is exact, so even relaxed grammars continue
// identically).
func TestEngineStateHandoff(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"site-only", Options{HeapNaming: 1}},
		{"evicting", Options{MaxRules: 64}},
		{"fixed-heat", Options{FixedHeatMultiple: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := genTrace(t, "boxsim", 6000)
			events := b.Events()
			// Split on a chunk boundary: eviction fires per chunk, so
			// the uninterrupted engine must see the same boundaries.
			split := (len(events) / 2 / 512) * 512

			full := NewEngine(tc.opts)
			ingestChunked(full, b, 512)

			half := NewEngine(tc.opts)
			for i := 0; i < split; i += 512 {
				end := i + 512
				if end > split {
					end = split
				}
				half.Ingest(events[i:end])
			}
			var state bytes.Buffer
			n, err := half.WriteState(&state)
			if err != nil {
				t.Fatalf("WriteState: %v", err)
			}
			if n != int64(state.Len()) {
				t.Fatalf("WriteState reported %d bytes, wrote %d", n, state.Len())
			}
			restored, err := ReadEngine(bytes.NewReader(state.Bytes()), tc.opts)
			if err != nil {
				t.Fatalf("ReadEngine: %v", err)
			}
			if restored.Events() != half.Events() || restored.Refs() != half.Refs() || restored.Evictions() != half.Evictions() {
				t.Fatalf("restored counters (%d,%d,%d) != (%d,%d,%d)",
					restored.Events(), restored.Refs(), restored.Evictions(),
					half.Events(), half.Refs(), half.Evictions())
			}
			for i := split; i < len(events); i += 512 {
				end := i + 512
				if end > len(events) {
					end = len(events)
				}
				restored.Ingest(events[i:end])
			}

			want := snapshotJSON(t, full.Snapshot())
			got := snapshotJSON(t, restored.Snapshot())
			if !bytes.Equal(got, want) {
				t.Fatalf("handoff snapshot diverges from uninterrupted engine:\n%s", firstDiffContext(got, want))
			}
			if restored.Stats() != full.Stats() {
				t.Fatalf("stats diverged: %+v != %+v", restored.Stats(), full.Stats())
			}
		})
	}
}

// TestEngineStateDoubleHandoff chains two persist→rehydrate→append hops
// — the lifecycle of a session migrated twice across shards — and pins
// two properties: the final snapshot is byte-identical to an engine that
// ingested the whole stream uninterrupted, and re-serializing a restored
// engine before any further ingest reproduces the persisted bytes
// exactly (rehydration is lossless on the wire, not just semantically,
// regardless of how the restored grammar's arena is laid out).
func TestEngineStateDoubleHandoff(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"evicting", Options{MaxRules: 64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := genTrace(t, "boxsim", 9000)
			events := b.Events()
			// Both cut points land on chunk boundaries so the evicting
			// variant sees identical eviction points in every lineage.
			cut1 := (len(events) / 3 / 512) * 512
			cut2 := (2 * len(events) / 3 / 512) * 512

			full := NewEngine(tc.opts)
			ingestChunked(full, b, 512)

			ingestRange := func(e *Engine, lo, hi int) {
				t.Helper()
				for i := lo; i < hi; i += 512 {
					end := i + 512
					if end > hi {
						end = hi
					}
					e.Ingest(events[i:end])
				}
			}

			first := NewEngine(tc.opts)
			ingestRange(first, 0, cut1)
			var state1 bytes.Buffer
			if _, err := first.WriteState(&state1); err != nil {
				t.Fatalf("first WriteState: %v", err)
			}

			second, err := ReadEngine(bytes.NewReader(state1.Bytes()), tc.opts)
			if err != nil {
				t.Fatalf("first ReadEngine: %v", err)
			}
			// A freshly restored engine must round-trip its own state
			// byte-for-byte before it ingests anything new.
			var echo bytes.Buffer
			if _, err := second.WriteState(&echo); err != nil {
				t.Fatalf("restored WriteState: %v", err)
			}
			if !bytes.Equal(echo.Bytes(), state1.Bytes()) {
				t.Fatalf("restored engine re-serializes to %d bytes differing from the %d persisted",
					echo.Len(), state1.Len())
			}
			ingestRange(second, cut1, cut2)
			var state2 bytes.Buffer
			if _, err := second.WriteState(&state2); err != nil {
				t.Fatalf("second WriteState: %v", err)
			}

			third, err := ReadEngine(bytes.NewReader(state2.Bytes()), tc.opts)
			if err != nil {
				t.Fatalf("second ReadEngine: %v", err)
			}
			ingestRange(third, cut2, len(events))

			want := snapshotJSON(t, full.Snapshot())
			got := snapshotJSON(t, third.Snapshot())
			if !bytes.Equal(got, want) {
				t.Fatalf("double-handoff snapshot diverges from uninterrupted engine:\n%s", firstDiffContext(got, want))
			}
			if third.Stats() != full.Stats() {
				t.Fatalf("stats diverged: %+v != %+v", third.Stats(), full.Stats())
			}
		})
	}
}

// TestEngineStateSnapshotThenHandoff: serializing after a snapshot (DAG
// caches populated) must still restore cleanly — the drain path
// snapshots before persisting state.
func TestEngineStateSnapshotThenHandoff(t *testing.T) {
	b := genTrace(t, "boxsim", 4000)
	events := b.Events()
	split := len(events) / 2

	full := NewEngine(Options{})
	full.Ingest(events)

	half := NewEngine(Options{})
	half.Ingest(events[:split])
	_ = half.Snapshot() // populate DAG caches, as /v1/close does

	var state bytes.Buffer
	if _, err := half.WriteState(&state); err != nil {
		t.Fatalf("WriteState after snapshot: %v", err)
	}
	restored, err := ReadEngine(&state, Options{})
	if err != nil {
		t.Fatalf("ReadEngine: %v", err)
	}
	restored.Ingest(events[split:])
	if got, want := snapshotJSON(t, restored.Snapshot()), snapshotJSON(t, full.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("post-snapshot handoff diverges:\n%s", firstDiffContext(got, want))
	}
}

// TestEngineStateOptionMismatch: restoring under different analysis
// options must fail loudly, never silently continue.
func TestEngineStateOptionMismatch(t *testing.T) {
	e := NewEngine(Options{})
	b := genTrace(t, "boxsim", 500)
	e.Ingest(b.Events())
	var state bytes.Buffer
	if _, err := e.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	good := state.Bytes()

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"heap naming", Options{HeapNaming: 1}},
		{"max rules", Options{MaxRules: 32}},
		{"block size", Options{BlockSize: 128}},
		{"coverage", Options{CoverageTarget: 0.5}},
		{"fixed heat", Options{FixedHeatMultiple: 2}},
		{"stream window", Options{MinStreamLen: 3}},
	} {
		if _, err := ReadEngine(bytes.NewReader(good), tc.opts); err == nil {
			t.Errorf("%s mismatch: want error, got nil", tc.name)
		}
	}
	// The matching options (zero value normalizes identically) restore.
	if _, err := ReadEngine(bytes.NewReader(good), Options{}); err != nil {
		t.Errorf("matching options: %v", err)
	}
}

// TestEngineStateDecodeErrors exercises corruption handling.
func TestEngineStateDecodeErrors(t *testing.T) {
	e := NewEngine(Options{})
	e.Ingest(genTrace(t, "boxsim", 500).Events())
	var state bytes.Buffer
	if _, err := e.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	good := state.Bytes()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("XENG1234")},
		{"truncated header", good[:5]},
		{"truncated blob", good[:len(good)-10]},
	} {
		if _, err := ReadEngine(bytes.NewReader(tc.data), Options{}); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// TestEngineStateWriteLeavesEngineUsable: WriteState is non-destructive;
// the drain path snapshots and serializes the same engine.
func TestEngineStateWriteLeavesEngineUsable(t *testing.T) {
	b := genTrace(t, "boxsim", 2000)
	events := b.Events()
	e := NewEngine(Options{})
	e.Ingest(events[:1000])
	if _, err := e.WriteState(new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	e.Ingest(events[1000:])

	ref := NewEngine(Options{})
	ref.Ingest(events)
	if got, want := snapshotJSON(t, e.Snapshot()), snapshotJSON(t, ref.Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("WriteState disturbed the live engine")
	}
}
