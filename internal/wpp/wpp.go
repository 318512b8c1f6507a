// Package wpp implements Whole Program Paths (Larus, PLDI 1999): the
// control-flow representation the paper's Whole Program Streams
// deliberately mirror (§1, §3). A WPP is the SEQUITUR grammar of a
// program's acyclic-path trace; hot subpaths are its frequently repeated
// path subsequences, detected with the same postorder DAG analysis the
// data side uses (§3.1: "The algorithm used for detecting hot data
// streams in WPSs is the same algorithm Larus used to compute hot
// subpaths in WPPs").
//
// §6 observes that the two sides together "provide a complete picture of
// a program's dynamic execution behavior"; Correlate realizes that: it
// joins hot subpaths to the hot data streams their executions generate,
// using the interleaving of Path records and data references in one
// trace.
package wpp

import (
	"sort"

	"repro/internal/hotstream"
	"repro/internal/trace"
	"repro/internal/wps"
)

// PathTrace is the control-flow side of a trace: the acyclic-path ID
// sequence plus, per path record, how many data references preceded it
// (the join key for correlation).
type PathTrace struct {
	// IDs is the path sequence (terminals for the WPP grammar).
	IDs []uint64
	// RefIndex[i] is the number of load/store references that occurred
	// before path record i. A Path record is emitted when its path
	// completes, so record i's path covers references
	// [RefIndex[i-1], RefIndex[i]) (with RefIndex[-1] taken as 0).
	RefIndex []int
	// Distinct is the number of distinct path IDs.
	Distinct int
}

// Extract pulls the path trace out of a combined event buffer. Traces
// without Path records yield an empty PathTrace.
func Extract(b *trace.Buffer) *PathTrace {
	pt := &PathTrace{}
	refs := 0
	seen := make(map[uint64]struct{})
	for _, e := range b.Events() {
		switch {
		case e.Kind.IsRef():
			refs++
		case e.Kind == trace.Path:
			id := uint64(e.PC)
			pt.IDs = append(pt.IDs, id)
			pt.RefIndex = append(pt.RefIndex, refs)
			seen[id] = struct{}{}
		}
	}
	pt.Distinct = len(seen)
	return pt
}

// WPP is a Whole Program Path: the grammar over the path sequence. It
// reuses the WPS machinery — the representations are the same structure
// over different alphabets, which is the paper's design point.
type WPP struct {
	*wps.WPS
	Trace *PathTrace
}

// Build compresses the path trace into a WPP.
func Build(pt *PathTrace) *WPP {
	return &WPP{WPS: wps.Build(pt.IDs, wps.DefaultOptions()), Trace: pt}
}

// HotSubpaths detects hot subpaths at the largest threshold covering the
// target fraction of path records (the same 90% rule the data side uses).
func (w *WPP) HotSubpaths(coverageTarget float64) (hotstream.Threshold, []*hotstream.Stream) {
	th, meas := hotstream.FindThreshold(w.DAG, w.Trace.IDs, uint64(len(w.Trace.IDs)),
		uint64(w.Trace.Distinct), hotstream.SearchConfig{CoverageTarget: coverageTarget})
	return th, meas.Streams
}

// Correlation joins one hot subpath to the hot data streams observed
// during its occurrences.
type Correlation struct {
	// Subpath indexes the hot subpath.
	Subpath int
	// StreamCounts maps hot-data-stream ID to the number of times an
	// occurrence of that stream started inside this subpath's
	// occurrences.
	StreamCounts map[int]uint64
	// Occurrences is the subpath's occurrence count in the joined walk.
	Occurrences uint64
}

// Top returns the subpath's strongest stream associations, sorted by
// count descending.
func (c *Correlation) Top(n int) []StreamCount {
	out := make([]StreamCount, 0, len(c.StreamCounts))
	for id, count := range c.StreamCounts {
		out = append(out, StreamCount{Stream: id, Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Stream < out[j].Stream
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// StreamCount pairs a hot-data-stream ID with an association count.
type StreamCount struct {
	Stream int
	Count  uint64
}

// Correlate joins hot subpaths to hot data streams: for each occurrence
// of each hot subpath (found by greedy tokenization of the path
// sequence), the data-stream occurrences whose first reference falls
// inside the subpath's reference extent are attributed to it. names is
// the abstracted reference sequence aligned with the trace the PathTrace
// came from.
func Correlate(pt *PathTrace, subpaths []*hotstream.Stream, names []uint64, streams []*hotstream.Stream) []Correlation {
	if len(pt.IDs) == 0 || len(subpaths) == 0 || len(streams) == 0 {
		return nil
	}
	// Data-stream occurrence start positions, in reference index space.
	type occ struct {
		start int
		id    int
	}
	var streamOccs []occ
	hotstream.ScanOccurrences(names, streams, func(id, start, _ int) {
		streamOccs = append(streamOccs, occ{start: start, id: id})
	})

	out := make([]Correlation, len(subpaths))
	for i := range out {
		out[i] = Correlation{Subpath: i, StreamCounts: make(map[int]uint64)}
	}
	// Subpath occurrences over the path-ID sequence; each occurrence
	// spans path records [pstart, pstart+plen), i.e. references
	// [refLo, refHi) where refLo is the ref index before the first path
	// record's block and refHi the ref index at the last one.
	//
	// Path record i covers the references since record i-1:
	// (RefIndex[i-1], RefIndex[i]].
	si := 0
	hotstream.ScanOccurrences(pt.IDs, subpaths, func(id, pstart, plen int) {
		refLo := 0
		if pstart > 0 {
			refLo = pt.RefIndex[pstart-1]
		}
		refHi := pt.RefIndex[pstart+plen-1]
		out[id].Occurrences++
		// Advance through stream occurrences (both scans are in
		// ascending position order).
		for si < len(streamOccs) && streamOccs[si].start < refLo {
			si++
		}
		for j := si; j < len(streamOccs) && streamOccs[j].start < refHi; j++ {
			out[id].StreamCounts[streamOccs[j].id]++
		}
	})
	return out
}
