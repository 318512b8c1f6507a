package wpp

import (
	"testing"

	"repro/internal/abstract"
	"repro/internal/hotstream"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/wps"
)

func TestExtract(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Load(1, trace.HeapBase)
	b.Load(1, trace.HeapBase+8)
	b.Path(100)
	b.Load(1, trace.HeapBase)
	b.Path(101)
	b.Path(100)
	pt := Extract(b)
	if len(pt.IDs) != 3 || pt.Distinct != 2 {
		t.Fatalf("path trace = %+v", pt)
	}
	if pt.IDs[0] != 100 || pt.IDs[1] != 101 {
		t.Errorf("ids = %v", pt.IDs)
	}
	wantIdx := []int{2, 3, 3}
	for i, w := range wantIdx {
		if pt.RefIndex[i] != w {
			t.Errorf("RefIndex[%d] = %d, want %d", i, pt.RefIndex[i], w)
		}
	}
}

func TestExtractNoPaths(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Load(1, trace.HeapBase)
	pt := Extract(b)
	if len(pt.IDs) != 0 || pt.Distinct != 0 {
		t.Errorf("path trace = %+v", pt)
	}
}

func TestBuildAndHotSubpaths(t *testing.T) {
	// A synthetic path trace: motif of three paths repeated.
	b := trace.NewBuffer(0)
	for i := 0; i < 500; i++ {
		b.Path(1)
		b.Path(2)
		b.Path(3)
	}
	pt := Extract(b)
	w := Build(pt)
	if w.NumRefs != 1500 {
		t.Errorf("WPP refs = %d", w.NumRefs)
	}
	th, subs := w.HotSubpaths(0.9)
	if len(subs) == 0 {
		t.Fatal("no hot subpaths on a periodic path trace")
	}
	if th.Coverage < 0.9 {
		t.Errorf("coverage = %v", th.Coverage)
	}
	// The WPP compresses far below the raw path count.
	if int(w.Size().Symbols) > 150 {
		t.Errorf("WPP symbols = %d for 1500 periodic paths", w.Size().Symbols)
	}
}

func TestCorrelate(t *testing.T) {
	// Two path kinds: path 1's execution always touches objects a,b;
	// path 2's touches c,d. The correlation must recover the mapping.
	b := trace.NewBuffer(0)
	a1 := trace.HeapBase
	b.Alloc(1, a1, 64)
	addr := func(k int) uint32 { return a1 + uint32(k)*8 }
	for i := 0; i < 300; i++ {
		b.Load(1, addr(0))
		b.Load(1, addr(1))
		b.Path(1)
		b.Load(2, addr(2))
		b.Load(2, addr(3))
		b.Path(2)
	}
	pt := Extract(b)
	// Abstract with raw addresses so the four words are four names.
	res := abstract.New(abstract.RawAddress).Abstract(b)

	subpaths := []*hotstream.Stream{
		{ID: 0, Seq: []uint64{1, 2}, Freq: 300},
	}
	streams := []*hotstream.Stream{
		{ID: 0, Seq: []uint64{res.Names[0], res.Names[1]}, Freq: 300}, // a,b
		{ID: 1, Seq: []uint64{res.Names[2], res.Names[3]}, Freq: 300}, // c,d
	}
	cors := Correlate(pt, subpaths, res.Names, streams)
	if len(cors) != 1 {
		t.Fatalf("correlations = %d", len(cors))
	}
	c := cors[0]
	if c.Occurrences != 300 {
		t.Errorf("occurrences = %d", c.Occurrences)
	}
	top := c.Top(2)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	// Both streams start inside the subpath's extent each iteration.
	for _, sc := range top {
		if sc.Count < 290 {
			t.Errorf("stream %d count = %d", sc.Stream, sc.Count)
		}
	}
}

func TestCorrelateEmpty(t *testing.T) {
	if got := Correlate(&PathTrace{}, nil, nil, nil); got != nil {
		t.Errorf("empty correlate = %v", got)
	}
}

func TestEndToEndOnWorkload(t *testing.T) {
	// The full §6 "complete picture" pipeline on a real generator.
	b, err := workload.Generate("252.eon", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt := Extract(b)
	if len(pt.IDs) == 0 {
		t.Fatal("eon emitted no path records")
	}
	w := Build(pt)
	_, subs := w.HotSubpaths(0.9)
	if len(subs) == 0 {
		t.Fatal("no hot subpaths")
	}
	res := abstract.New(abstract.BirthID).Abstract(b)
	// Quick data-side detection at a fixed heat.
	wref := wps.Build(res.Names, wps.DefaultOptions()).DAG
	cfg := hotstream.Config{MinLen: 2, MaxLen: 100, Heat: 100}
	streams := hotstream.Detect(wref, cfg)
	meas := hotstream.Measure(res.Names, streams, cfg, 0, false)
	cors := Correlate(pt, subs, res.Names, meas.Streams)
	if len(cors) != len(subs) {
		t.Fatalf("correlations = %d, want %d", len(cors), len(subs))
	}
	found := false
	for _, c := range cors {
		if len(c.StreamCounts) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no subpath associated with any data stream")
	}
}
