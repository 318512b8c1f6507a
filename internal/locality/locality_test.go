package locality

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/abstract"
	"repro/internal/hotstream"
)

func TestSkewUniform(t *testing.T) {
	// Uniform distribution: 90% of refs need 90% of entities.
	counts := make([]uint64, 100)
	for i := range counts {
		counts[i] = 10
	}
	c := SkewFromCounts(counts)
	if c.Locality90 != 90 {
		t.Errorf("Locality90 = %v, want 90 for uniform", c.Locality90)
	}
	if c.Refs != 1000 || c.Entities != 100 {
		t.Errorf("refs=%d entities=%d", c.Refs, c.Entities)
	}
}

func TestSkewExtreme(t *testing.T) {
	// One entity holds 95% of refs: Locality90 is 1 of 100 entities.
	counts := make([]uint64, 100)
	counts[0] = 9500
	for i := 1; i < 100; i++ {
		counts[i] = 5
	}
	c := SkewFromCounts(counts)
	if c.Locality90 != 1 {
		t.Errorf("Locality90 = %v, want 1", c.Locality90)
	}
}

func TestSkewEmpty(t *testing.T) {
	c := SkewFromCounts(nil)
	if c.Locality90 != 0 || len(c.Points) != 0 {
		t.Errorf("empty skew = %+v", c)
	}
}

func TestSkewCurveMonotone(t *testing.T) {
	counts := []uint64{50, 30, 10, 5, 3, 2}
	c := SkewFromCounts(counts)
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].RefPct < c.Points[i-1].RefPct || c.Points[i].EntityPct < c.Points[i-1].EntityPct {
			t.Fatalf("curve not monotone: %+v", c.Points)
		}
	}
	last := c.Points[len(c.Points)-1]
	if math.Abs(last.RefPct-100) > 1e-9 || math.Abs(last.EntityPct-100) > 1e-9 {
		t.Errorf("curve must end at (100,100), got %+v", last)
	}
}

func TestAddressAndPCSkew(t *testing.T) {
	addrs := []uint32{1, 1, 1, 1, 1, 1, 1, 1, 1, 2} // 90% on addr 1
	c := AddressSkew(addrs)
	if c.Locality90 != 50 { // 1 of 2 addresses
		t.Errorf("Locality90 = %v, want 50", c.Locality90)
	}
	pcs := []uint32{7, 7, 8, 8}
	p := PCSkew(pcs)
	if p.Entities != 2 || p.Refs != 4 {
		t.Errorf("pc skew = %+v", p)
	}
}

func obj(name uint64, base, size uint32) *abstract.Object {
	return &abstract.Object{Name: name, Base: base, Size: size}
}

func TestPackingEfficiencyIdeal(t *testing.T) {
	// Three 16-byte objects packed in one 64-byte block: 1 min block, 1
	// actual block -> efficiency 1.
	objects := map[uint64]*abstract.Object{
		1: obj(1, 0, 16), 2: obj(2, 16, 16), 3: obj(3, 32, 16),
	}
	s := &hotstream.Stream{Seq: []uint64{1, 2, 3}}
	if got := PackingEfficiency(s, objects, 64); got != 1 {
		t.Errorf("efficiency = %v, want 1", got)
	}
}

func TestPackingEfficiencyScattered(t *testing.T) {
	// Three 16-byte objects in three different blocks: min 1, actual 3.
	objects := map[uint64]*abstract.Object{
		1: obj(1, 0, 16), 2: obj(2, 128, 16), 3: obj(3, 256, 16),
	}
	s := &hotstream.Stream{Seq: []uint64{1, 2, 3}}
	if got := PackingEfficiency(s, objects, 64); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("efficiency = %v, want 1/3", got)
	}
}

func TestPackingEfficiencyRepeatedMembersCountOnce(t *testing.T) {
	objects := map[uint64]*abstract.Object{1: obj(1, 0, 16), 2: obj(2, 128, 16)}
	s1 := &hotstream.Stream{Seq: []uint64{1, 2}}
	s2 := &hotstream.Stream{Seq: []uint64{1, 2, 1, 2, 1}}
	a := PackingEfficiency(s1, objects, 64)
	b := PackingEfficiency(s2, objects, 64)
	if a != b {
		t.Errorf("repetition changed packing: %v vs %v", a, b)
	}
}

func TestPackingEfficiencyObjectSpanningBlocks(t *testing.T) {
	// One 100-byte object spans 2+ blocks at offset 60: blocks 0,1,2 ->
	// min ceil(100/64)=2, actual 3.
	objects := map[uint64]*abstract.Object{1: obj(1, 60, 100)}
	s := &hotstream.Stream{Seq: []uint64{1}}
	if got := PackingEfficiency(s, objects, 64); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("efficiency = %v, want 2/3", got)
	}
}

func TestPackingEfficiencyUnknownMember(t *testing.T) {
	s := &hotstream.Stream{Seq: []uint64{42}}
	if got := PackingEfficiency(s, map[uint64]*abstract.Object{}, 64); got != 1 {
		t.Errorf("lone unknown word = %v, want 1", got)
	}
}

func TestPackingEfficiencyBounds(t *testing.T) {
	// Efficiency is in (0, 1] always.
	objects := map[uint64]*abstract.Object{
		1: obj(1, 0, 4), 2: obj(2, 1000, 4), 3: obj(3, 2000, 4), 4: obj(4, 3000, 4),
	}
	s := &hotstream.Stream{Seq: []uint64{1, 2, 3, 4}}
	got := PackingEfficiency(s, objects, 64)
	if got <= 0 || got > 1 {
		t.Errorf("efficiency out of bounds: %v", got)
	}
	if got != 0.25 {
		t.Errorf("efficiency = %v, want 0.25", got)
	}
}

// TestPackingEfficiencyCostIndependentOfObjectSize pins that a stream's
// packing costs the same however large its objects are. A block-by-block
// count visited all 4M blocks of a 256 MiB object, and on 1-byte blocks
// an extent ending at 0xFFFFFFFF wrapped its uint32 block counter around,
// so it never returned. Each case runs under a deadline, must give the
// exact answer, and may allocate only its two O(members) work slices.
func TestPackingEfficiencyCostIndependentOfObjectSize(t *testing.T) {
	const big = 256 << 20
	for _, c := range []struct {
		name      string
		objects   map[uint64]*abstract.Object
		blockSize int
		want      float64
	}{
		{
			name: "256 MiB object",
			objects: map[uint64]*abstract.Object{
				1: obj(1, 0x4000_0000, big), 2: obj(2, 0x5000_0000, 16), 3: obj(3, 0x6000_0000, 16),
			},
			blockSize: 64,
			// ceil((big+32)/64) ideal blocks against big/64+2 occupied.
			want: float64(big/64+1) / float64(big/64+2),
		},
		{
			name: "extent ending at 0xFFFFFFFF on 1-byte blocks",
			objects: map[uint64]*abstract.Object{
				1: obj(1, 0xFFFF_FF00, 0x100), 2: obj(2, 0x1000, 4), 3: obj(3, 0xFFFF_FFF0, 8),
			},
			blockSize: 1,
			// 268 bytes in 260 blocks: at most one block per byte.
			want: 1,
		},
	} {
		s := &hotstream.Stream{Seq: []uint64{1, 2, 3, 1, 2, 3}}
		done := make(chan float64, 1)
		go func() { done <- PackingEfficiency(s, c.objects, c.blockSize) }()
		select {
		case got := <-done:
			if got != c.want {
				t.Errorf("%s: efficiency = %v, want %v", c.name, got, c.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: PackingEfficiency did not return within 10s", c.name)
		}
		run := func() { PackingEfficiency(s, c.objects, c.blockSize) }
		if allocs := testing.AllocsPerRun(5, run); allocs > 2 {
			t.Errorf("%s: %v allocations per call, want at most 2", c.name, allocs)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: %d bytes allocated per call, want at most 64 KiB", c.name, n)
		}
	}
}

func TestCDF(t *testing.T) {
	vals := []float64{2, 2, 5, 10}
	pts := CDF(vals, []float64{0, 2, 5, 10, 100})
	want := []float64{0, 50, 75, 100, 100}
	for i, p := range pts {
		if math.Abs(p.Pct-want[i]) > 1e-9 {
			t.Errorf("CDF at %v = %v, want %v", p.X, p.Pct, want[i])
		}
	}
}

func TestSizeCDFGrid(t *testing.T) {
	streams := []*hotstream.Stream{
		{Seq: make([]uint64, 2)},
		{Seq: make([]uint64, 50)},
		{Seq: make([]uint64, 100)},
	}
	pts := SizeCDF(streams)
	if len(pts) != 21 {
		t.Fatalf("grid size = %d", len(pts))
	}
	if pts[len(pts)-1].Pct != 100 {
		t.Errorf("CDF must reach 100%% at size 100: %+v", pts[len(pts)-1])
	}
}

func TestSummarizeWeighted(t *testing.T) {
	objects := map[uint64]*abstract.Object{
		1: obj(1, 0, 32), 2: obj(2, 32, 32), // packed: eff 1
		3: obj(3, 0, 32), 4: obj(4, 1024, 32), // scattered: eff 0.5
	}
	hot := &hotstream.Stream{Seq: []uint64{1, 2}, Freq: 100}       // heat 200, size 2
	cold := &hotstream.Stream{Seq: []uint64{3, 4, 3, 4}, Freq: 25} // heat 100, size 4
	hot.GapSum = 99 * 10                                           // temporal 10
	cold.GapSum = 24 * 100                                         // temporal 100
	s := Summarize([]*hotstream.Stream{hot, cold}, objects, 64)
	// Weighted avg size = (200*2 + 100*4) / 300 = 800/300.
	if math.Abs(s.WtAvgStreamSize-800.0/300) > 1e-9 {
		t.Errorf("WtAvgStreamSize = %v", s.WtAvgStreamSize)
	}
	// Weighted avg interval = (200*10 + 100*100)/300 = 40.
	if math.Abs(s.WtAvgRepetitionInterval-40) > 1e-9 {
		t.Errorf("WtAvgRepetitionInterval = %v", s.WtAvgRepetitionInterval)
	}
	// Weighted avg packing = (200*100 + 100*50)/300.
	if math.Abs(s.WtAvgPackingEfficiency-250.0/3) > 1e-6 {
		t.Errorf("WtAvgPackingEfficiency = %v", s.WtAvgPackingEfficiency)
	}
	if s.Streams != 2 || s.DistinctAddresses != 4 {
		t.Errorf("streams=%d distinct=%d", s.Streams, s.DistinctAddresses)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, nil, 64)
	if s.WtAvgStreamSize != 0 || s.Streams != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestStreamMembers(t *testing.T) {
	streams := []*hotstream.Stream{
		{Seq: []uint64{1, 2, 1}},
		{Seq: []uint64{2, 3}},
	}
	m := StreamMembers(streams)
	if len(m) != 3 {
		t.Errorf("members = %v", m)
	}
}
