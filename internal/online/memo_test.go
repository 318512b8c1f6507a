package online

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/hotstream"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The tests in this file pin the snapshot memo: a repeat Snapshot of an
// unchanged engine reuses the threshold and the measurement counts of
// the last Snapshot that measured, and must produce exactly the bytes a
// full search would.

// requireRepeatMatches snapshots e twice and checks both snapshots equal
// want, and that the second one reused the searched threshold.
func requireRepeatMatches(t *testing.T, e *Engine, want []byte) {
	t.Helper()
	first := snapshotJSON(t, e.Snapshot())
	if e.memo.counts == nil || e.memo.at != e.events {
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

	e.memo.th.Heat *= 4
	if hit := e.Snapshot(); hit.Threshold.Heat != e.memo.th.Heat || hit.Threshold.Heat == searched.Threshold.Heat {
		t.Fatalf("snapshot heat %d, want the remembered %d", hit.Threshold.Heat, e.memo.th.Heat)
	}
	e.memo.at--
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
		if restored.memo.counts != nil {
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
	at := e.memo.at

	e.Ingest(nil)
	e.Ingest([]trace.Event{})
	if e.memo.at != at || e.events != at {
		t.Fatalf("empty ingest moved the event count: memo at %d, events %d", e.memo.at, e.events)
	}
	requireRepeatMatches(t, e, want)
}

// TestRepeatSnapshotOfEmptyEngine: an engine that has seen nothing has a
// zero event count, which must not match a memo that was never set.
func TestRepeatSnapshotOfEmptyEngine(t *testing.T) {
	want := snapshotJSON(t, NewEngine(Options{}).Snapshot())
	requireRepeatMatches(t, NewEngine(Options{}), want)
}

// rememberedCounts detects the streams at e's remembered heat and
// replays its remembered counts onto them.
func rememberedCounts(t *testing.T, e *Engine) ([]*hotstream.Stream, *hotstream.Measurement) {
	t.Helper()
	d := sequitur.NewDAG(e.g, e.opts.MaxStreamLen)
	streams := hotstream.Detect(d, hotstream.Config{
		MinLen: e.opts.MinStreamLen, MaxLen: e.opts.MaxStreamLen, Heat: e.memo.th.Heat,
	})
	m, ok := hotstream.Replay(streams, e.memo.counts)
	if !ok {
		t.Fatal("the remembered counts do not fit the streams detected at the remembered heat")
	}
	return streams, m
}

// TestRepeatSnapshotReplaysCounts proves a repeat snapshot replays the
// remembered counts instead of scanning: counts poisoned in the memo
// show up in it, and counts remembered at another event count are
// ignored.
func TestRepeatSnapshotReplaysCounts(t *testing.T) {
	for _, opts := range []Options{{}, {FixedHeatMultiple: 4}} {
		b := genTrace(t, "boxsim", 8_000)
		e := NewEngine(opts)
		e.Ingest(b.Events())
		measured := e.Snapshot()

		streams, m := rememberedCounts(t, e)
		streams[0].Freq += 7
		m.CoveredRefs--
		e.memo.counts = m.Counts()
		poisoned := e.Snapshot()
		if got, want := poisoned.HotStreams.Streams[0].Freq, measured.HotStreams.Streams[0].Freq+7; got != want {
			t.Fatalf("FixedHeatMultiple %d: repeat snapshot's first stream has frequency %d, want the poisoned %d",
				opts.FixedHeatMultiple, got, want)
		}
		if poisoned.HotStreams.Coverage >= measured.HotStreams.Coverage {
			t.Fatalf("FixedHeatMultiple %d: repeat snapshot's coverage %v, want the poisoned count's, below %v",
				opts.FixedHeatMultiple, poisoned.HotStreams.Coverage, measured.HotStreams.Coverage)
		}
		e.memo.at--
		if got, want := snapshotJSON(t, e.Snapshot()), snapshotJSON(t, measured); !bytes.Equal(got, want) {
			t.Fatalf("FixedHeatMultiple %d: counts remembered at another event count were replayed:\n%s",
				opts.FixedHeatMultiple, firstDiffContext(got, want))
		}
	}
}

// TestRepeatSnapshotRefusesMismatchedCounts: remembered counts that do
// not fit the streams detected at the remembered heat are not replayed.
// The snapshot measures instead, equals a fresh engine's, and remembers
// the counts it measured.
func TestRepeatSnapshotRefusesMismatchedCounts(t *testing.T) {
	b := genTrace(t, "boxsim", 8_000)
	fresh := NewEngine(Options{})
	fresh.Ingest(b.Events())
	want := snapshotJSON(t, fresh.Snapshot())
	good := fresh.memo.counts

	other := NewEngine(Options{})
	other.Ingest(genTrace(t, "sqlserver", 8_000).Events())
	other.Snapshot()
	n, k := binary.Uvarint(good)
	for name, bad := range map[string][]byte{
		"another session's": other.memo.counts,
		"count header":      append(binary.AppendUvarint(nil, n+1), good[k:]...),
		"truncated":         good[:len(good)-1],
		"trailing byte":     append(append([]byte{}, good...), 0),
	} {
		e := NewEngine(Options{})
		e.Ingest(b.Events())
		e.Snapshot()
		e.memo.counts = bad
		if got := snapshotJSON(t, e.Snapshot()); !bytes.Equal(got, want) {
			t.Fatalf("%s counts: snapshot differs from a fresh engine's:\n%s", name, firstDiffContext(got, want))
		}
		if !bytes.Equal(e.memo.counts, good) {
			t.Fatalf("%s counts: the snapshot did not measure and remember what it measured", name)
		}
	}
}

// TestSnapshotMemoCeiling: the memo costs at most 8 bytes per detected
// stream on every workload family at 30k references. Raw 16-byte
// frequency and gap pairs would not fit.
func TestSnapshotMemoCeiling(t *testing.T) {
	const perStream = 8
	for _, bench := range workload.Names() {
		e := NewEngine(Options{})
		ingestChunked(e, genTrace(t, bench, 30_000), ingestChunk)
		e.Snapshot()
		streams, _ := rememberedCounts(t, e)
		size := cap(e.memo.counts)
		t.Logf("%s: %d B for %d detected streams", bench, size, len(streams))
		if size > perStream*len(streams) {
			t.Errorf("%s: the memo holds %d B for %d detected streams, want at most %d B per stream",
				bench, size, len(streams), perStream)
		}
	}
}
