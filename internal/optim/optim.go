// Package optim evaluates the potential of hot-data-stream-based locality
// optimizations (§4, §5.4): miss attribution to hot streams across cache
// configurations (Figure 8), and the normalized miss rates of ideal
// stream-based prefetching, stream-ordered clustering, and their
// combination on an 8K fully-associative 64-byte-block cache (Figure 9).
package optim

import (
	"sort"

	"repro/internal/abstract"
	"repro/internal/cache"
	"repro/internal/hotstream"
	"repro/internal/parallel"
)

// AttributionPoint is one point of Figure 8: for a given cache geometry,
// the overall miss rate and the fraction of misses whose reference
// participates in a hot data stream.
type AttributionPoint struct {
	Config cache.Config
	// MissRate is misses/references (percent).
	MissRate float64
	// HotMissPct is the percentage of misses attributable to hot data
	// stream references.
	HotMissPct float64
}

// Attribute simulates one cache geometry over the concrete address trace,
// classifying each miss by whether the reference's abstract name is a hot
// data stream member.
func Attribute(names []uint64, addrs []uint32, hotMembers map[uint64]struct{}, cfg cache.Config) AttributionPoint {
	c := cache.New(cfg)
	var hotMisses uint64
	for i, addr := range addrs {
		if !c.Access(addr) {
			if _, hot := hotMembers[names[i]]; hot {
				hotMisses++
			}
		}
	}
	st := c.Stats()
	p := AttributionPoint{Config: cfg, MissRate: st.MissRate() * 100}
	if st.Misses > 0 {
		p.HotMissPct = float64(hotMisses) / float64(st.Misses) * 100
	}
	return p
}

// AttributionSweep runs Attribute across a ladder of geometries, producing
// Figure 8's (miss rate, hot-miss fraction) series sorted by miss rate.
// The independent simulations run on at most workers goroutines. Points
// are collected in geometry order before the final sort, so the series
// is identical at any worker count.
func AttributionSweep(names []uint64, addrs []uint32, hotMembers map[uint64]struct{},
	cfgs []cache.Config, workers int) []AttributionPoint {
	out, _ := parallel.Map(workers, len(cfgs), func(i int) (AttributionPoint, error) {
		return Attribute(names, addrs, hotMembers, cfgs[i]), nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].MissRate < out[j].MissRate })
	return out
}

// Remap is a stream-ordered clustering layout: a new mapping of hot data
// objects to memory addresses in which each hot stream's members are
// placed consecutively (§4.2.2's clustering). Objects in multiple hot
// streams are placed by the hottest stream that contains them — the
// "dominant data layout" policy — since without continuous reorganization
// clustering cannot satisfy competing constraints.
type Remap struct {
	newBase map[uint64]uint32
	objects map[uint64]*abstract.Object
}

// ClusterBase is the start of the fresh region clustered objects move to;
// it is far from all generated addresses, so cold objects keep their
// original placement without collisions.
const ClusterBase uint32 = 0xC000_0000

// ClusterRemap builds the clustering layout from hot streams (hottest
// first) and the heap map.
func ClusterRemap(streams []*hotstream.Stream, objects map[uint64]*abstract.Object) *Remap {
	order := make([]*hotstream.Stream, len(streams))
	copy(order, streams)
	sort.Slice(order, func(i, j int) bool {
		if order[i].Magnitude() != order[j].Magnitude() {
			return order[i].Magnitude() > order[j].Magnitude()
		}
		return order[i].ID < order[j].ID
	})
	return ClusterRemapInOrder(order, objects)
}

// ClusterRemapInOrder builds the clustering layout placing streams in the
// given order (earlier streams win competing layouts). ClusterRemap's
// hottest-first policy is the paper's; this entry point exists for the
// placement-policy ablation.
func ClusterRemapInOrder(order []*hotstream.Stream, objects map[uint64]*abstract.Object) *Remap {
	r := &Remap{newBase: make(map[uint64]uint32), objects: objects}
	cursor := ClusterBase
	for _, s := range order {
		for _, name := range s.Seq {
			if _, placed := r.newBase[name]; placed {
				continue
			}
			size := uint32(4)
			if o, ok := objects[name]; ok && o.Size > 0 {
				size = o.Size
			}
			r.newBase[name] = cursor
			cursor += size
		}
	}
	return r
}

// Placed returns how many objects the layout moved.
func (r *Remap) Placed() int { return len(r.newBase) }

// NewBase returns the clustered base address of the named object, if
// placed.
func (r *Remap) NewBase(name uint64) (uint32, bool) {
	b, ok := r.newBase[name]
	return b, ok
}

// Addr translates one reference: clustered objects preserve their interior
// offset at the new base; everything else is unchanged.
func (r *Remap) Addr(name uint64, addr uint32) uint32 {
	nb, ok := r.newBase[name]
	if !ok {
		return addr
	}
	if o, ok := r.objects[name]; ok && addr >= o.Base && addr < o.Base+o.Size {
		return nb + (addr - o.Base)
	}
	return nb
}

// RemapObjects returns the heap map under the clustered layout, for
// packing-efficiency verification.
func (r *Remap) RemapObjects() map[uint64]*abstract.Object {
	out := make(map[uint64]*abstract.Object, len(r.objects))
	for name, o := range r.objects {
		c := *o
		if nb, ok := r.newBase[name]; ok {
			c.Base = nb
		}
		out[name] = &c
	}
	return out
}

// Potential is Figure 9's row for one benchmark: absolute miss rates for
// the base layout and each optimization. Normalize against Base to get the
// paper's bars.
type Potential struct {
	Base     float64
	Prefetch float64
	Cluster  float64
	Combined float64
	// BaseStats retains the full base simulation counts.
	BaseStats cache.Stats
}

// Normalized returns the three optimized miss rates as percentages of the
// base rate (the paper's presentation), or zeros when Base is 0.
func (p Potential) Normalized() (prefetch, cluster, combined float64) {
	if p.Base == 0 {
		return 0, 0, 0
	}
	return p.Prefetch / p.Base * 100, p.Cluster / p.Base * 100, p.Combined / p.Base * 100
}

// EvaluatePotential computes Figure 9 for one benchmark: the trace is
// simulated four times over the given geometry —
//
//   - base: the original address mapping;
//   - prefetching: an ideal scheme that, when a hot stream occurrence
//     begins, prefetches the remaining members so their references are
//     cache-resident (§5.4 ignores prefetch-timing misses);
//   - clustering: the base access order over the stream-ordered remap;
//   - combined: prefetching over the remap.
//
// The four cache simulations fan out over at most workers goroutines.
// Each simulation owns a private cache and writes a distinct result slot
// while sharing only read-only inputs (the trace arrays, the occurrence
// index, the clustered addresses), so the result is bit-identical to
// the sequential path at any worker count. workers <= 1 is exactly the
// sequential evaluation.
func EvaluatePotential(names []uint64, addrs []uint32, objects map[uint64]*abstract.Object,
	streams []*hotstream.Stream, cfg cache.Config, workers int) Potential {

	// Annotate each position with its occurrence extent (start position
	// -> length) once; all prefetching runs reuse it.
	heads := make(map[int]int) // start index -> occurrence length
	hotstream.ScanOccurrences(names, streams, func(id, start, length int) {
		heads[start] = length
	})

	remap := ClusterRemap(streams, objects)
	clusteredAddrs := make([]uint32, len(addrs))
	for i, a := range addrs {
		clusteredAddrs[i] = remap.Addr(names[i], a)
	}

	var base, pref, clus, comb cache.Stats
	_ = parallel.Do(workers,
		func() error { base = simulate(addrs, nil, cfg); return nil },
		func() error { pref = simulate(addrs, heads, cfg); return nil },
		func() error { clus = simulate(clusteredAddrs, nil, cfg); return nil },
		func() error { comb = simulate(clusteredAddrs, heads, cfg); return nil },
	)

	return Potential{
		Base:      base.MissRate() * 100,
		Prefetch:  pref.MissRate() * 100,
		Cluster:   clus.MissRate() * 100,
		Combined:  comb.MissRate() * 100,
		BaseStats: base,
	}
}

// simulate runs the trace through one cache. When heads is non-nil, each
// hot-stream occurrence triggers an ideal prefetch of its remaining
// members at its first reference.
func simulate(addrs []uint32, heads map[int]int, cfg cache.Config) cache.Stats {
	c := cache.New(cfg)
	for i, addr := range addrs {
		c.Access(addr)
		if heads != nil {
			if n, ok := heads[i]; ok {
				for j := i + 1; j < i+n && j < len(addrs); j++ {
					c.Prefetch(addrs[j])
				}
			}
		}
	}
	return c.Stats()
}
