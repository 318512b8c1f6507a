// Package locality quantifies data-reference locality: the reference-skew
// measurement of §2.1/Figure 1, the inherent exploitable spatial and
// temporal locality metrics of §2.4.1, the realized cache-block
// packing-efficiency metric of §2.4.2, their cumulative distributions
// (Figures 6 and 7), and the weighted summaries of Table 3.
package locality

import (
	"slices"
	"sort"

	"repro/internal/abstract"
	"repro/internal/hotstream"
)

// SkewPoint is one point of a cumulative reference-skew curve.
type SkewPoint struct {
	// EntityPct is the percentage of the hottest entities considered.
	EntityPct float64
	// RefPct is the percentage of references they account for.
	RefPct float64
}

// SkewCurve is Figure 1's measurement for one program and one entity kind
// (data addresses or load/store PCs).
type SkewCurve struct {
	Points []SkewPoint
	// Locality90 is the smallest percentage of entities responsible for
	// 90% of references: the paper's quantifiable reference-locality
	// definition in the spirit of the 90/10 rule. Good locality means a
	// small value; a uniform distribution yields 90%.
	Locality90 float64
	// Entities is the number of distinct entities.
	Entities int
	// Refs is the total reference count.
	Refs uint64
}

// SkewFromCounts builds the curve from per-entity reference counts.
func SkewFromCounts(counts []uint64) SkewCurve {
	c := make([]uint64, len(counts))
	copy(c, counts)
	sort.Slice(c, func(i, j int) bool { return c[i] > c[j] })
	var total uint64
	for _, v := range c {
		total += v
	}
	curve := SkewCurve{Entities: len(c), Refs: total, Locality90: 100}
	if total == 0 || len(c) == 0 {
		curve.Locality90 = 0
		return curve
	}
	var cum uint64
	found := false
	for i, v := range c {
		cum += v
		ePct := float64(i+1) / float64(len(c)) * 100
		rPct := float64(cum) / float64(total) * 100
		// Keep the curve compact: record ~200 points.
		if i == 0 || i == len(c)-1 || (i+1)%max(1, len(c)/200) == 0 {
			curve.Points = append(curve.Points, SkewPoint{EntityPct: ePct, RefPct: rPct})
		}
		if !found && rPct >= 90 {
			curve.Locality90 = ePct
			found = true
		}
	}
	return curve
}

// AddressSkew measures Figure 1's right panel: skew over distinct data
// addresses (stack references are already excluded by abstraction).
func AddressSkew(addrs []uint32) SkewCurve {
	return SkewFromCounts(countsOf32(addrs))
}

// PCSkew measures Figure 1's left panel: skew over load/store PCs.
func PCSkew(pcs []uint32) SkewCurve {
	return SkewFromCounts(countsOf32(pcs))
}

func countsOf32(vs []uint32) []uint64 {
	m := make(map[uint32]uint64, 1<<12)
	for _, v := range vs {
		m[v]++
	}
	out := make([]uint64, 0, len(m))
	for _, n := range m {
		out = append(out, n)
	}
	return out
}

// PackingEfficiency computes a hot data stream's cache-block packing
// efficiency (§2.4.2): the ratio of the minimum number of cache blocks its
// unique data members would need under an ideal remapping to the number of
// blocks they actually occupy under the current address mapping. 1.0 means
// the layout already exploits the stream's inherent spatial locality.
//
// Members missing from the object map (e.g. references abstracted from
// unknown addresses) are treated as 4-byte words at their recorded base.
//
// Each unique member occupies one interval of blocks, from its base's
// block to its last byte's, and the occupied blocks are the length of the
// intervals' union: O(m log m) time and O(m) space for a stream of m
// references, however large its objects are. A member whose last byte
// base+size-1 overflows uint32 takes the wrapped value as its last byte,
// so its interval covers no block, or only base's block when the wrapped
// byte still falls in it. That keeps the result equal, bit for bit, to a
// count of the distinct blocks visited one by one in uint32 arithmetic
// (the tests' oracle), wherever that count terminates: on 1-byte blocks
// an interval reaching block 0xFFFFFFFF would wrap its counter forever.
func PackingEfficiency(s *hotstream.Stream, objects map[uint64]*abstract.Object, blockSize int) float64 {
	if blockSize <= 0 || len(s.Seq) == 0 {
		return 1
	}
	bs := uint32(blockSize)
	// Sorting a copy of the members brings duplicates together; each
	// interval is packed as first<<32 | last, so sorting the packed
	// values sorts the intervals by start. Streams up to the paper's
	// maximum length fit the stack buffers.
	var nameBuf, spanBuf [128]uint64
	names := append(nameBuf[:0], s.Seq...)
	slices.Sort(names)
	spans := spanBuf[:0]
	var totalBytes uint64
	for i, name := range names {
		if i > 0 && name == names[i-1] {
			continue
		}
		base, size := uint32(0), uint32(4)
		if o, ok := objects[name]; ok {
			base, size = o.Base, o.Size
			if size == 0 {
				size = 4
			}
		}
		totalBytes += uint64(size)
		if first, last := base/bs, (base+size-1)/bs; first <= last {
			spans = append(spans, uint64(first)<<32|uint64(last))
		}
	}
	slices.Sort(spans)
	// next is the first block the union has not counted yet.
	var actual, next uint64
	for _, sp := range spans {
		first, end := sp>>32, sp&0xFFFFFFFF+1
		if end > next {
			actual += end - max(first, next)
			next = end
		}
	}
	minBlocks := (totalBytes + uint64(blockSize) - 1) / uint64(blockSize)
	if minBlocks == 0 {
		minBlocks = 1
	}
	if actual == 0 {
		return 1
	}
	eff := float64(minBlocks) / float64(actual)
	if eff > 1 {
		eff = 1
	}
	return eff
}

// CDFPoint is one point of a cumulative distribution over hot data
// streams.
type CDFPoint struct {
	// X is the metric value (stream size for Figure 6, packing
	// efficiency in percent for Figure 7).
	X float64
	// Pct is the percentage of hot data streams with metric <= X.
	Pct float64
}

// CDF builds the cumulative distribution of values at the given grid of X
// positions (inclusive).
func CDF(values []float64, grid []float64) []CDFPoint {
	v := make([]float64, len(values))
	copy(v, values)
	sort.Float64s(v)
	out := make([]CDFPoint, 0, len(grid))
	for _, x := range grid {
		n := sort.SearchFloat64s(v, x)
		// Include values equal to x.
		for n < len(v) && v[n] <= x {
			n++
		}
		pct := 0.0
		if len(v) > 0 {
			pct = float64(n) / float64(len(v)) * 100
		}
		out = append(out, CDFPoint{X: x, Pct: pct})
	}
	return out
}

// SizeCDF is Figure 6: the cumulative distribution of hot-data-stream
// sizes (spatial regularity) on a 0..100 grid.
func SizeCDF(streams []*hotstream.Stream) []CDFPoint {
	vals := make([]float64, len(streams))
	for i, s := range streams {
		vals[i] = float64(s.SpatialRegularity())
	}
	grid := make([]float64, 0, 21)
	for x := 0.0; x <= 100; x += 5 {
		grid = append(grid, x)
	}
	return CDF(vals, grid)
}

// PackingCDF is Figure 7: the cumulative distribution of packing
// efficiencies (as percentages) on a 0..100 grid.
func PackingCDF(streams []*hotstream.Stream, objects map[uint64]*abstract.Object, blockSize int) []CDFPoint {
	vals := make([]float64, len(streams))
	for i, s := range streams {
		vals[i] = PackingEfficiency(s, objects, blockSize) * 100
	}
	grid := make([]float64, 0, 21)
	for x := 0.0; x <= 100; x += 5 {
		grid = append(grid, x)
	}
	return CDF(vals, grid)
}

// Summary is Table 3: heat-weighted averages over all hot data streams.
// Hotter streams influence the average more, so the summary reflects the
// behaviour optimizations would actually encounter.
type Summary struct {
	// WtAvgStreamSize is the weighted average spatial regularity: the
	// program's inherent exploitable spatial locality. Long streams are
	// good targets for cache-conscious layout and prefetching.
	WtAvgStreamSize float64
	// WtAvgRepetitionInterval is the weighted average temporal
	// regularity: the program's inherent exploitable temporal locality.
	// Streams repeating in close succession are likely cache-resident
	// already.
	WtAvgRepetitionInterval float64
	// WtAvgPackingEfficiency is the weighted average realized locality
	// (in percent). Low values promise gains from clustering.
	WtAvgPackingEfficiency float64
	// Streams is the number of hot data streams summarized.
	Streams int
	// DistinctAddresses is the number of distinct data members across
	// all hot streams (Table 2's column).
	DistinctAddresses int
}

// Summarize computes Table 3's row for one program.
func Summarize(streams []*hotstream.Stream, objects map[uint64]*abstract.Object, blockSize int) Summary {
	var sum Summary
	sum.Streams = len(streams)
	var wTotal float64
	members := make(map[uint64]struct{})
	for _, s := range streams {
		w := float64(s.Magnitude())
		wTotal += w
		sum.WtAvgStreamSize += w * float64(s.SpatialRegularity())
		sum.WtAvgRepetitionInterval += w * s.TemporalRegularity()
		sum.WtAvgPackingEfficiency += w * PackingEfficiency(s, objects, blockSize) * 100
		for _, name := range s.Seq {
			members[name] = struct{}{}
		}
	}
	sum.DistinctAddresses = len(members)
	if wTotal > 0 {
		sum.WtAvgStreamSize /= wTotal
		sum.WtAvgRepetitionInterval /= wTotal
		sum.WtAvgPackingEfficiency /= wTotal
	}
	return sum
}

// StreamMembers returns the set of abstract names participating in any of
// the given streams: the addresses Figure 8 attributes misses to and Table
// 2 counts.
func StreamMembers(streams []*hotstream.Stream) map[uint64]struct{} {
	out := make(map[uint64]struct{})
	for _, s := range streams {
		for _, name := range s.Seq {
			out[name] = struct{}{}
		}
	}
	return out
}
