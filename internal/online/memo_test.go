package online

import (
	"bytes"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// The tests in this file pin the threshold memo: a repeat Snapshot of an
// unchanged engine reuses the threshold its last search returned, and
// must produce exactly the bytes a full search would.

// requireRepeatMatches snapshots e twice and checks both snapshots equal
// want, and that the second one reused the searched threshold.
func requireRepeatMatches(t *testing.T, e *Engine, want []byte) {
	t.Helper()
	first := snapshotJSON(t, e.Snapshot())
	if !e.searchedOK || e.searchedAt != e.events {
		t.Fatalf("no threshold remembered at %d events after a search", e.events)
	}
	second := snapshotJSON(t, e.Snapshot())
	if !bytes.Equal(first, want) {
		t.Fatalf("first snapshot differs from the reference:\n%s", firstDiffContext(first, want))
	}
	if !bytes.Equal(second, want) {
		t.Fatalf("repeat snapshot differs from the reference:\n%s", firstDiffContext(second, want))
	}
}

// TestRepeatSnapshotMatchesFresh: for every workload family, a second
// Snapshot of an unchanged engine is byte-identical to the snapshot of a
// fresh engine fed the same input.
func TestRepeatSnapshotMatchesFresh(t *testing.T) {
	for _, bench := range workload.Names() {
		t.Run(bench, func(t *testing.T) {
			b := genTrace(t, bench, 12_000)
			fresh := NewEngine(Options{})
			ingestChunked(fresh, b, 1000)
			want := snapshotJSON(t, fresh.Snapshot())

			e := NewEngine(Options{})
			ingestChunked(e, b, 1000)
			requireRepeatMatches(t, e, want)
		})
	}
}

// TestSnapshotReadsRememberedThreshold proves the memo is consulted: a
// remembered threshold that disagrees with the search changes the
// snapshot, and a changed event count ignores it.
func TestSnapshotReadsRememberedThreshold(t *testing.T) {
	b := genTrace(t, "boxsim", 8_000)
	e := NewEngine(Options{})
	e.Ingest(b.Events())
	searched := e.Snapshot()

	e.searched.Heat *= 4
	if hit := e.Snapshot(); hit.Threshold.Heat != e.searched.Heat || hit.Threshold.Heat == searched.Threshold.Heat {
		t.Fatalf("snapshot heat %d, want the remembered %d", hit.Threshold.Heat, e.searched.Heat)
	}
	e.searchedAt--
	if got, want := snapshotJSON(t, e.Snapshot()), snapshotJSON(t, searched); !bytes.Equal(got, want) {
		t.Fatalf("a threshold remembered at another event count was reused:\n%s", firstDiffContext(got, want))
	}
}

// TestRepeatSnapshotWithEviction: with MaxRules > 0 a repeat snapshot
// still equals a fresh engine's, including after snapshots taken between
// chunks (eviction runs only inside Ingest).
func TestRepeatSnapshotWithEviction(t *testing.T) {
	opts := Options{MaxRules: 64}
	b := genTrace(t, "176.gcc", 20_000)
	events := b.Events()

	fresh := NewEngine(opts)
	ingestChunked(fresh, b, 1500)
	want := snapshotJSON(t, fresh.Snapshot())

	e := NewEngine(opts)
	for i := 0; i < len(events); i += 1500 {
		end := min(i+1500, len(events))
		e.Ingest(events[i:end])
		if i%4500 == 0 {
			_ = e.Snapshot()
			_ = e.Snapshot()
		}
	}
	if e.Evictions() == 0 {
		t.Fatal("MaxRules 64 evicted nothing; the test does not exercise eviction")
	}
	requireRepeatMatches(t, e, want)
}

// TestRepeatSnapshotAfterHandoff: a restored engine starts with nothing
// remembered, and its first and repeat snapshots equal the original's.
func TestRepeatSnapshotAfterHandoff(t *testing.T) {
	for _, opts := range []Options{{}, {MaxRules: 64}} {
		b := genTrace(t, "sqlserver", 12_000)
		e := NewEngine(opts)
		ingestChunked(e, b, 2000)
		want := snapshotJSON(t, e.Snapshot())

		var state bytes.Buffer
		if _, err := e.WriteState(&state); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadEngine(&state, opts)
		if err != nil {
			t.Fatal(err)
		}
		if restored.searchedOK {
			t.Fatal("a restored engine remembers a threshold")
		}
		requireRepeatMatches(t, restored, want)
		// The original's own repeat is a memo hit too.
		requireRepeatMatches(t, e, want)
	}
}

// TestRepeatSnapshotAroundEmptyIngest: an empty Ingest leaves the input
// and the event count unchanged, so the memo survives it.
func TestRepeatSnapshotAroundEmptyIngest(t *testing.T) {
	b := genTrace(t, "181.mcf", 8_000)
	e := NewEngine(Options{})
	e.Ingest(b.Events())
	want := snapshotJSON(t, e.Snapshot())
	at := e.searchedAt

	e.Ingest(nil)
	e.Ingest([]trace.Event{})
	if e.searchedAt != at || e.events != at {
		t.Fatalf("empty ingest moved the event count: memo at %d, events %d", e.searchedAt, e.events)
	}
	requireRepeatMatches(t, e, want)
}

// TestRepeatSnapshotOfEmptyEngine: an engine that has seen nothing has a
// zero event count, which must not match a memo that was never set.
func TestRepeatSnapshotOfEmptyEngine(t *testing.T) {
	want := snapshotJSON(t, NewEngine(Options{}).Snapshot())
	requireRepeatMatches(t, NewEngine(Options{}), want)
}
