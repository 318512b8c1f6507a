package online

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/abstract"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func genTrace(t testing.TB, bench string, refs int) *trace.Buffer {
	t.Helper()
	b, err := workload.Generate(bench, refs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func snapshotJSON(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	out, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ingestChunked feeds the buffer's events to the engine in chunks of the
// given size (the final chunk may be short).
func ingestChunked(e *Engine, b *trace.Buffer, chunk int) {
	events := b.Events()
	for i := 0; i < len(events); i += chunk {
		end := i + chunk
		if end > len(events) {
			end = len(events)
		}
		e.Ingest(events[i:end])
	}
}

// TestOnlineMatchesBatch enforces the package's equivalence guarantee:
// with eviction disabled, the online snapshot after full consumption is
// byte-identical to the batch pipeline's level-0 results over the same
// records.
func TestOnlineMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		name, bench string
		minLen      int
	}{
		{"boxsim", "boxsim", 0},
		{"176.gcc", "176.gcc", 0},
		// A floor above the paper's cap of 100: both sides must widen
		// the cap to the floor, not invert the window.
		{"boxsim-min150", "boxsim", 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := genTrace(t, tc.bench, 30_000)

			batch := core.Analyze(b, core.Options{SkipPotential: true, MinStreamLen: tc.minLen})
			want := snapshotJSON(t, SnapshotFromAnalysis(batch))

			e := NewEngine(Options{MinStreamLen: tc.minLen})
			ingestChunked(e, b, 777) // deliberately awkward chunk size
			got := snapshotJSON(t, e.Snapshot())

			if !bytes.Equal(got, want) {
				t.Errorf("online snapshot differs from batch:\n--- online ---\n%s\n--- batch ---\n%s",
					firstDiffContext(got, want), firstDiffContext(want, got))
			}
		})
	}
}

// firstDiffContext trims matching prefixes so failures show the divergence,
// not two full JSON documents.
func firstDiffContext(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 200
	if start < 0 {
		start = 0
	}
	end := i + 200
	if end > len(a) {
		end = len(a)
	}
	return string(a[start:end])
}

// TestChunkingInvariance checks that snapshot results do not depend on
// how the stream was chunked — the other half of the guarantee.
func TestChunkingInvariance(t *testing.T) {
	b := genTrace(t, "boxsim", 20_000)
	var ref []byte
	for _, chunk := range []int{1, 97, 4096, b.Len()} {
		e := NewEngine(Options{})
		ingestChunked(e, b, chunk)
		got := snapshotJSON(t, e.Snapshot())
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("chunk size %d produced a different snapshot", chunk)
		}
	}
}

// TestSnapshotThenAppend interleaves snapshots with ingestion: the
// engine must remain appendable after a snapshot (DAG-layer caches are
// invalidated), a threshold remembered before an ingest must not be
// reused after it, and the final state must still match batch.
func TestSnapshotThenAppend(t *testing.T) {
	b := genTrace(t, "boxsim", 20_000)
	events := b.Events()

	e := NewEngine(Options{})
	third := len(events) / 3
	e.Ingest(events[:third])
	mid := e.Snapshot()
	if mid.Trace.Refs == 0 {
		t.Fatal("mid-stream snapshot saw no references")
	}
	_ = e.Snapshot()
	e.Ingest(events[third : 2*third])
	_ = e.Snapshot()
	_ = e.Snapshot()
	e.Ingest(events[2*third:])

	batch := core.Analyze(b, core.Options{SkipPotential: true})
	requireRepeatMatches(t, e, snapshotJSON(t, SnapshotFromAnalysis(batch)))
}

// TestIngestReader checks the encoded-stream path: decoding a network
// upload chunk by chunk is equivalent to ingesting the events directly.
func TestIngestReader(t *testing.T) {
	b := genTrace(t, "boxsim", 20_000)
	var enc bytes.Buffer
	w := trace.NewWriter(&enc)
	if err := w.WriteAll(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	direct := NewEngine(Options{})
	direct.Ingest(b.Events())

	streamed := NewEngine(Options{})
	n, err := streamed.IngestReader(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(b.Len()) {
		t.Fatalf("IngestReader consumed %d events, want %d", n, b.Len())
	}
	if got, want := snapshotJSON(t, streamed.Snapshot()), snapshotJSON(t, direct.Snapshot()); !bytes.Equal(got, want) {
		t.Error("IngestReader snapshot differs from direct Ingest")
	}
}

func TestIngestReaderCorrupt(t *testing.T) {
	b := genTrace(t, "boxsim", 5_000)
	var enc bytes.Buffer
	w := trace.NewWriter(&enc)
	if err := w.WriteAll(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := enc.Bytes()
	e := NewEngine(Options{})
	n, err := e.IngestReader(bytes.NewReader(raw[:len(raw)-3]))
	if err == nil {
		t.Fatal("IngestReader of a truncated stream returned nil error")
	}
	if n == 0 {
		t.Error("IngestReader ingested nothing before the corrupt tail")
	}
	if e.Events() != n {
		t.Errorf("engine events = %d, reported consumed = %d", e.Events(), n)
	}
}

// TestEvictionBoundsRules checks the bounded-memory mode: the rule table
// stays at or under the cap after every chunk, evictions are counted,
// and snapshots remain well-formed (the represented sequence is intact:
// the grammar's input length still equals the abstracted reference
// count).
func TestEvictionBoundsRules(t *testing.T) {
	b := genTrace(t, "176.gcc", 30_000)
	const cap = 64
	e := NewEngine(Options{MaxRules: cap})
	events := b.Events()
	for i := 0; i < len(events); i += 512 {
		end := i + 512
		if end > len(events) {
			end = len(events)
		}
		e.Ingest(events[i:end])
		if e.Rules() > cap {
			t.Fatalf("after chunk at %d: %d rules live, cap %d", i, e.Rules(), cap)
		}
	}
	if e.Evictions() == 0 {
		t.Fatal("no evictions recorded; cap never engaged — workload too small?")
	}

	s := e.Snapshot()
	if s.Grammar.Evictions != e.Evictions() {
		t.Errorf("snapshot evictions = %d, engine = %d", s.Grammar.Evictions, e.Evictions())
	}
	if s.Grammar.InputLen != e.Refs() {
		t.Errorf("grammar input length %d != abstracted refs %d: eviction lost sequence content",
			s.Grammar.InputLen, e.Refs())
	}
	if s.HotStreams.Coverage < 0 || s.HotStreams.Coverage > 1 {
		t.Errorf("coverage = %v out of range", s.HotStreams.Coverage)
	}
	// The engine must remain appendable after eviction + snapshot.
	e.Ingest(events[:512])
	if e.Rules() > 2*cap {
		t.Errorf("rules = %d after post-eviction append, cap %d", e.Rules(), cap)
	}
}

// TestFixedHeatMultiple checks the search-bypass mode matches batch with
// the same pinned multiple.
func TestFixedHeatMultiple(t *testing.T) {
	b := genTrace(t, "boxsim", 20_000)
	batch := core.Analyze(b, core.Options{SkipPotential: true, FixedHeatMultiple: 4})
	want := snapshotJSON(t, SnapshotFromAnalysis(batch))

	e := NewEngine(Options{FixedHeatMultiple: 4})
	ingestChunked(e, b, 1024)
	got := snapshotJSON(t, e.Snapshot())
	if !bytes.Equal(got, want) {
		t.Error("fixed-threshold online snapshot differs from batch")
	}
}

// TestSnapshotShape spot-checks the JSON encoding locserve serves.
func TestSnapshotShape(t *testing.T) {
	b := genTrace(t, "boxsim", 10_000)
	e := NewEngine(Options{})
	e.Ingest(b.Events())
	var out bytes.Buffer
	if err := e.Snapshot().WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, key := range []string{`"trace"`, `"abstraction"`, `"grammar"`, `"threshold"`, `"hotStreams"`, `"locality"`, `"refsPerAddress"`} {
		if !strings.Contains(s, key) {
			t.Errorf("snapshot JSON missing %s", key)
		}
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("snapshot JSON missing trailing newline")
	}
}

// TestSnapshotCostIndependentOfAllocSize uploads traces whose alloc
// records name objects that are huge or end at the top of the address
// space, and requires the snapshot to finish promptly with the exact
// packing efficiency. Under birth IDs a 256 MiB object is a stream
// member. Under site naming an object keeps the extent of its site's
// first allocation, so a first allocation running to 0xFFFFFFFF (which
// no reference can hit) lends that extent to the later object the
// references do hit; with 1-byte blocks a block-by-block count never
// ended on it.
func TestSnapshotCostIndependentOfAllocSize(t *testing.T) {
	const hot = 0x4000_0000
	alloc := func(pc, addr, size uint32) trace.Event {
		return trace.Event{Kind: trace.Alloc, PC: pc, Addr: addr, Size: size}
	}
	for _, c := range []struct {
		name   string
		opts   Options
		allocs []trace.Event
	}{
		{"256 MiB object", Options{BlockSize: 64}, []trace.Event{
			alloc(1, hot, 256<<20), alloc(2, 0x5000_0000, 16), alloc(3, 0x6000_0000, 16),
		}},
		{"extent ending at 0xFFFFFFFF on 1-byte blocks", Options{BlockSize: 1, HeapNaming: abstract.SiteOnly}, []trace.Event{
			alloc(1, 0x8000_0000, 0x8000_0000), alloc(1, hot, 16), alloc(2, 0x5000_0000, 16), alloc(3, 0x6000_0000, 16),
		}},
	} {
		events := c.allocs
		for i := 0; i < 3000; i++ {
			for j, addr := range []uint32{hot, 0x5000_0000, 0x6000_0000} {
				events = append(events, trace.Event{Kind: trace.Load, PC: 0x100 + uint32(j), Addr: addr})
			}
		}
		e := NewEngine(c.opts)
		e.Ingest(events)
		done := make(chan *Snapshot, 1)
		go func() { done <- e.Snapshot() }()
		var snap *Snapshot
		select {
		case snap = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Snapshot did not return within 10s", c.name)
		}
		if len(snap.HotStreams.Streams) == 0 {
			t.Fatalf("%s: no hot streams", c.name)
		}
		// The objects in the map are disjoint and block-aligned, so each
		// unique member occupies ceil(size/bs) blocks of its own.
		bs := uint64(c.opts.BlockSize)
		objects := e.abs.Objects()
		var want, wTotal float64
		for _, st := range snap.HotStreams.Streams {
			var size, blocks uint64
			seen := map[uint64]bool{}
			for _, name := range st.Seq {
				if o := objects[name]; !seen[name] {
					seen[name] = true
					size += uint64(o.Size)
					blocks += (uint64(o.Size) + bs - 1) / bs
				}
			}
			eff := min(1, float64((size+bs-1)/bs)/float64(blocks))
			w := float64(st.Heat)
			wTotal += w
			want += w * eff * 100
		}
		want /= wTotal
		if got := snap.Locality.WtAvgPackingEfficiencyPct; got != want {
			t.Errorf("%s: packing efficiency %v%%, want %v%%", c.name, got, want)
		}
	}
}
