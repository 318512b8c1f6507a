package optim

import (
	"math/rand"
	"testing"

	"repro/internal/abstract"
	"repro/internal/cache"
	"repro/internal/hotstream"
	"repro/internal/locality"
)

// scatteredWorkload builds a trace where a hot stream of nStream objects,
// each in its own cache block, repeats interleaved with cold sweeps that
// evict them.
func scatteredWorkload(nStream, reps, coldSweep int) (names []uint64, addrs []uint32, objects map[uint64]*abstract.Object, stream *hotstream.Stream) {
	objects = make(map[uint64]*abstract.Object)
	seq := make([]uint64, nStream)
	for i := 0; i < nStream; i++ {
		name := uint64(i + 1)
		objects[name] = &abstract.Object{Name: name, Base: uint32(i * 4096), Size: 16}
		seq[i] = name
	}
	coldBase := uint64(1000)
	for r := 0; r < reps; r++ {
		for i := 0; i < nStream; i++ {
			names = append(names, seq[i])
			addrs = append(addrs, objects[seq[i]].Base)
		}
		for c := 0; c < coldSweep; c++ {
			name := coldBase + uint64(r*coldSweep+c)
			base := uint32(0x40000000 + (r*coldSweep+c)*64)
			objects[name] = &abstract.Object{Name: name, Base: base, Size: 16}
			names = append(names, name)
			addrs = append(addrs, base)
		}
	}
	stream = &hotstream.Stream{Seq: seq, Freq: uint64(reps)}
	return
}

func TestAttributeHotMisses(t *testing.T) {
	names, addrs, _, stream := scatteredWorkload(32, 50, 200)
	hot := locality.StreamMembers([]*hotstream.Stream{stream})
	p := Attribute(names, addrs, hot, cache.Config{Size: 1024, BlockSize: 64, Assoc: 0})
	if p.MissRate <= 0 {
		t.Fatal("expected misses on scattered workload")
	}
	if p.HotMissPct <= 0 || p.HotMissPct > 100 {
		t.Errorf("HotMissPct = %v", p.HotMissPct)
	}
}

func TestAttributionSweepSorted(t *testing.T) {
	names, addrs, _, stream := scatteredWorkload(16, 20, 100)
	hot := locality.StreamMembers([]*hotstream.Stream{stream})
	pts := AttributionSweep(names, addrs, hot, cache.SweepConfigs(), 1)
	if len(pts) != len(cache.SweepConfigs()) {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].MissRate < pts[i-1].MissRate {
			t.Fatal("sweep not sorted by miss rate")
		}
	}
}

func TestClusterRemapPacksStreamMembers(t *testing.T) {
	_, _, objects, stream := scatteredWorkload(8, 2, 0)
	r := ClusterRemap([]*hotstream.Stream{stream}, objects)
	if r.Placed() != 8 {
		t.Fatalf("placed = %d, want 8", r.Placed())
	}
	// Members must be consecutive starting at ClusterBase.
	want := ClusterBase
	for _, name := range stream.Seq {
		nb, ok := r.NewBase(name)
		if !ok {
			t.Fatalf("member %d not placed", name)
		}
		if nb != want {
			t.Errorf("member %d at %#x, want %#x", name, nb, want)
		}
		want += objects[name].Size
	}
}

func TestClusterRemapImprovesPackingEfficiency(t *testing.T) {
	_, _, objects, stream := scatteredWorkload(8, 2, 0)
	before := locality.PackingEfficiency(stream, objects, 64)
	r := ClusterRemap([]*hotstream.Stream{stream}, objects)
	after := locality.PackingEfficiency(stream, r.RemapObjects(), 64)
	if after < before {
		t.Errorf("packing efficiency regressed: %v -> %v", before, after)
	}
	if after != 1 {
		t.Errorf("clustered packing = %v, want 1 (perfect packing)", after)
	}
}

func TestClusterRemapHottestWins(t *testing.T) {
	objects := map[uint64]*abstract.Object{
		1: {Name: 1, Base: 0, Size: 8},
		2: {Name: 2, Base: 4096, Size: 8},
		3: {Name: 3, Base: 8192, Size: 8},
	}
	hot := &hotstream.Stream{ID: 0, Seq: []uint64{1, 2}, Freq: 100}
	cool := &hotstream.Stream{ID: 1, Seq: []uint64{2, 3}, Freq: 5}
	r := ClusterRemap([]*hotstream.Stream{cool, hot}, objects)
	b1, _ := r.NewBase(1)
	b2, _ := r.NewBase(2)
	if b2 != b1+8 {
		t.Errorf("object 2 must follow object 1 (hottest stream wins): %#x vs %#x", b1, b2)
	}
}

func TestRemapAddrPreservesOffsets(t *testing.T) {
	objects := map[uint64]*abstract.Object{1: {Name: 1, Base: 1000, Size: 64}}
	s := &hotstream.Stream{Seq: []uint64{1, 1}, Freq: 2}
	r := ClusterRemap([]*hotstream.Stream{s}, objects)
	nb, _ := r.NewBase(1)
	if got := r.Addr(1, 1016); got != nb+16 {
		t.Errorf("Addr(interior) = %#x, want %#x", got, nb+16)
	}
	// Unplaced names pass through.
	if got := r.Addr(99, 777); got != 777 {
		t.Errorf("Addr(unplaced) = %d", got)
	}
}

func TestEvaluatePotentialOrdering(t *testing.T) {
	// Scattered hot stream + cold sweeps: prefetching and clustering
	// must both beat base; combined must be at least as good as
	// clustering alone here.
	names, addrs, objects, stream := scatteredWorkload(32, 100, 300)
	p := EvaluatePotential(names, addrs, objects, []*hotstream.Stream{stream}, cache.FullyAssociative8K, 1)
	if p.Base <= 0 {
		t.Fatal("base miss rate must be positive")
	}
	if p.Prefetch >= p.Base {
		t.Errorf("prefetch %v must beat base %v", p.Prefetch, p.Base)
	}
	if p.Cluster >= p.Base {
		t.Errorf("cluster %v must beat base %v", p.Cluster, p.Base)
	}
	if p.Combined > p.Cluster+1e-9 || p.Combined > p.Prefetch+1e-9 {
		t.Errorf("combined %v must be <= cluster %v and prefetch %v", p.Combined, p.Cluster, p.Prefetch)
	}
	pr, cl, co := p.Normalized()
	if pr >= 100 || cl >= 100 || co >= 100 {
		t.Errorf("normalized = %v %v %v, want < 100", pr, cl, co)
	}
}

func TestEvaluatePotentialNoStreams(t *testing.T) {
	// Without hot streams all four rates coincide.
	rng := rand.New(rand.NewSource(2))
	var names []uint64
	var addrs []uint32
	for i := 0; i < 5000; i++ {
		a := uint32(rng.Intn(1 << 16))
		names = append(names, uint64(a))
		addrs = append(addrs, a)
	}
	p := EvaluatePotential(names, addrs, nil, nil, cache.FullyAssociative8K, 1)
	if p.Prefetch != p.Base || p.Cluster != p.Base || p.Combined != p.Base {
		t.Errorf("rates differ without streams: %+v", p)
	}
}

func TestClusterRemapInjective(t *testing.T) {
	// Property: no two placed objects overlap in the clustered layout.
	rng := rand.New(rand.NewSource(8))
	objects := make(map[uint64]*abstract.Object)
	var streams []*hotstream.Stream
	for s := 0; s < 40; s++ {
		seq := make([]uint64, 2+rng.Intn(6))
		for i := range seq {
			name := uint64(rng.Intn(120) + 1)
			seq[i] = name
			if _, ok := objects[name]; !ok {
				objects[name] = &abstract.Object{
					Name: name,
					Base: uint32(rng.Intn(1 << 20)),
					Size: uint32(8 + rng.Intn(120)),
				}
			}
		}
		streams = append(streams, &hotstream.Stream{ID: s, Seq: seq, Freq: uint64(1 + rng.Intn(50))})
	}
	r := ClusterRemap(streams, objects)
	type span struct{ lo, hi uint32 }
	var spans []span
	for name, o := range objects {
		if nb, ok := r.NewBase(name); ok {
			spans = append(spans, span{nb, nb + o.Size})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("clustered objects overlap: %+v %+v", a, b)
			}
		}
	}
}

func TestNormalizedZeroBase(t *testing.T) {
	var p Potential
	a, b, c := p.Normalized()
	if a != 0 || b != 0 || c != 0 {
		t.Error("zero base must normalize to zeros")
	}
}

func TestPrefetchCoversStreamTail(t *testing.T) {
	// One long stream repeating with an eviction storm between
	// occurrences: base misses every member each round; prefetching
	// misses only the head.
	names, addrs, objects, stream := scatteredWorkload(16, 40, 400)
	p := EvaluatePotential(names, addrs, objects, []*hotstream.Stream{stream}, cache.FullyAssociative8K, 1)
	// Base misses ~ (16+400)/416 of refs; prefetch eliminates 15/16 of
	// stream misses. Just check a sizable gap.
	if p.Prefetch > p.Base*0.99 {
		t.Errorf("prefetch %v vs base %v: expected visible improvement", p.Prefetch, p.Base)
	}
}

// TestEvaluatePotentialParallelDeterministic asserts the four-way
// concurrent evaluation is bit-identical to the sequential (workers=1)
// path at several worker counts.
func TestEvaluatePotentialParallelDeterministic(t *testing.T) {
	names, addrs, objects, stream := scatteredWorkload(32, 60, 250)
	streams := []*hotstream.Stream{stream}
	want := EvaluatePotential(names, addrs, objects, streams, cache.FullyAssociative8K, 1)
	for _, workers := range []int{2, 4, 8} {
		got := EvaluatePotential(names, addrs, objects, streams, cache.FullyAssociative8K, workers)
		if got != want {
			t.Errorf("workers=%d: potential %+v != sequential %+v", workers, got, want)
		}
	}
}

// TestAttributionSweepParallelDeterministic asserts the concurrent sweep
// produces the identical point series at any worker count.
func TestAttributionSweepParallelDeterministic(t *testing.T) {
	names, addrs, _, stream := scatteredWorkload(16, 20, 100)
	hot := locality.StreamMembers([]*hotstream.Stream{stream})
	cfgs := cache.SweepConfigs()
	want := AttributionSweep(names, addrs, hot, cfgs, 1)
	for _, workers := range []int{3, 16} {
		got := AttributionSweep(names, addrs, hot, cfgs, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: point %d = %+v, want %+v", workers, i, got[i], want[i])
			}
		}
	}
}
