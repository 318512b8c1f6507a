package online

import (
	"io"
	"runtime"
	"testing"
)

// liveHeap returns the bytes of heap still reachable after two
// collections (the second sweeps what the first's finalizers freed).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEmptyEngineFootprint pins that a fresh engine costs kilobytes: every
// table and slab starts small and grows with the session, so a server
// holding many idle sessions is not charged for grammars they never
// built.
func TestEmptyEngineFootprint(t *testing.T) {
	const n, ceiling = 100, 32 << 10
	engines := make([]*Engine, n)
	before := liveHeap()
	for i := range engines {
		engines[i] = NewEngine(Options{})
	}
	after := liveHeap()
	runtime.KeepAlive(engines)
	per := int64(after-before) / n
	t.Logf("empty engine: %.1f KiB", float64(per)/1024)
	if per > ceiling {
		t.Errorf("an empty engine retains %d bytes, want at most %d", per, ceiling)
	}
}

// TestOnlineIngestAllocs is the ingest path's allocation gate: a fresh
// engine ingesting boxsim at 60k references in 4096-event chunks (the
// shape of BenchmarkOnlineIngest/exact) may allocate at most 92 times.
// Steady-state ingest allocates nothing per record, so the count is the
// engine's construction plus the O(log n) growth steps of its tables and
// slabs; a per-record allocation would add tens of thousands. The
// ceiling is 64 allocations, once measured on this path with presized
// tables, plus 20% and 16 of slack. Allocation counts do not depend on
// the host, so the gate holds anywhere.
func TestOnlineIngestAllocs(t *testing.T) {
	const ceiling = 92
	b := genTrace(t, "boxsim", 60_000)
	allocs := testing.AllocsPerRun(3, func() {
		ingestChunked(NewEngine(Options{}), b, ingestChunk)
	})
	t.Logf("%d records: %.0f allocs", b.Len(), allocs)
	if allocs > ceiling {
		t.Errorf("ingesting %d records into a fresh engine allocated %.0f times, want at most %d", b.Len(), allocs, ceiling)
	}
}

// BenchmarkEngineFootprint reports the live heap one engine holds after
// ingesting 30k references of each workload family the benchmark
// (cmd/locbench) runs, in KiB per engine. It regenerates the footprint
// table in EXPERIMENTS.md:
//
//	go test -run '^$' -bench EngineFootprint -benchtime 20x ./internal/online
func BenchmarkEngineFootprint(b *testing.B) {
	for _, fam := range []string{
		"boxsim", "sqlserver", "176.gcc", "181.mcf",
		"197.parser", "252.eon", "255.vortex", "300.twolf",
	} {
		b.Run(fam, func(b *testing.B) {
			buf := genTrace(b, fam, 30_000)
			engines := make([]*Engine, b.N)
			b.StopTimer()
			before := liveHeap()
			b.StartTimer()
			for i := range engines {
				engines[i] = NewEngine(Options{})
				ingestChunked(engines[i], buf, ingestChunk)
			}
			b.StopTimer()
			after := liveHeap()
			runtime.KeepAlive(engines)
			b.ReportMetric(float64(after-before)/float64(b.N)/1024, "KiB/engine")
		})
	}
}

// TestSnapshotAllocs is the allocation gate for a repeat snapshot: a
// Snapshot of an unchanged boxsim 30k engine builds the grammar's flat
// DAG, expands the sequence once from it, and detects and measures at
// the remembered threshold. That is a few slices per stage and a few per
// hot stream; a per-rule or per-symbol allocation (a map entry, a
// right-hand-side slice, a formatted string) would add thousands.
// Allocation counts do not depend on the host, so the gate holds
// anywhere.
func TestSnapshotAllocs(t *testing.T) {
	const ceiling = 400
	e := NewEngine(Options{})
	ingestChunked(e, genTrace(t, "boxsim", 30_000), ingestChunk)
	e.Snapshot()
	allocs := testing.AllocsPerRun(5, func() { e.Snapshot() })
	t.Logf("repeat snapshot: %.0f allocs", allocs)
	if allocs > ceiling {
		t.Errorf("a repeat snapshot of a boxsim 30k engine allocated %.0f times, want at most %d", allocs, ceiling)
	}
}

// TestWriteStateAllocs is the allocation gate for a session handoff's
// encode: Engine.WriteState of a 30k-reference engine writes each
// layer's section through one buffer, so it allocates per section and
// per growth of that buffer, plus the grammar's symbol index, sorted
// rule list and digram entries. It reads 41 on each family; a
// per-rule right-hand-side slice (Rule.RHS) or a per-entry escape adds
// thousands. The ceiling is that count plus a fifth and 16.
func TestWriteStateAllocs(t *testing.T) {
	const ceiling = 65
	for _, bench := range []string{"boxsim", "255.vortex", "300.twolf"} {
		e := NewEngine(Options{})
		ingestChunked(e, genTrace(t, bench, 30_000), ingestChunk)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := e.WriteState(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: WriteState %.0f allocs", bench, allocs)
		if allocs > ceiling {
			t.Errorf("%s: WriteState of a 30k engine allocated %.0f times, want at most %d", bench, allocs, ceiling)
		}
	}
}
