// Package wps builds Whole Program Streams (§3.1): the compact, analyzable
// representation of a program's complete dynamic data-reference behaviour,
// obtained by running SEQUITUR over the abstracted reference trace and
// viewing the resulting grammar as a DAG.
//
// A WPS is to data references what Larus's Whole Program Paths are to
// control flow: it is one to two orders of magnitude smaller than the trace
// yet supports analyses — hot-data-stream detection in particular — without
// decompression.
package wps

import (
	"io"

	"repro/internal/sequitur"
)

// WPS is a Whole Program Stream: the frozen DAG view of a SEQUITUR
// grammar over abstracted data reference names. The DAG owns everything
// it reads, so the grammar it was built from is not retained.
type WPS struct {
	// DAG is the analysis view (rule occurrence counts, expansion
	// lengths, bounded prefixes/suffixes).
	DAG *sequitur.DAG
	// NumRefs is the number of references represented.
	NumRefs uint64
}

// Options configures WPS construction.
type Options struct {
	// MaxStreamLen bounds the prefix/suffix memoization in the DAG; it
	// must be at least the maximum hot-data-stream length the caller
	// will analyze (the paper uses 100).
	MaxStreamLen int
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{MaxStreamLen: 100}
}

// Build compresses the abstracted name sequence into a WPS.
func Build(names []uint64, opts Options) *WPS {
	if opts.MaxStreamLen <= 0 {
		opts.MaxStreamLen = 100
	}
	g := sequitur.New()
	if err := g.AppendAll(names); err != nil {
		// Batch construction takes an in-memory name slice, which is
		// orders of magnitude smaller than the arena's 2^32-symbol
		// handle space; reaching the cap here means the process could
		// not have materialized the input either. Fail loudly rather
		// than return a WPS representing a prefix.
		panic(err)
	}
	return &WPS{
		DAG:     sequitur.NewDAG(g, opts.MaxStreamLen),
		NumRefs: uint64(len(names)),
	}
}

// Size reports the representation's size statistics (Figure 5's WPS bars).
func (w *WPS) Size() sequitur.Stats { return w.DAG.ComputeStats() }

// WriteBinary persists the WPS in the compact binary form (§5.2 notes the
// binary representation is about half the ASCII size).
func (w *WPS) WriteBinary(out io.Writer) (int64, error) { return w.DAG.WriteBinary(out) }

// BinarySize reports the binary encoding's size without writing.
func (w *WPS) BinarySize() uint64 { return w.DAG.BinarySize() }

// LoadBinary reloads a persisted WPS for analysis; maxStreamLen bounds
// the DAG's affix memoization as in Build.
func LoadBinary(r io.Reader, maxStreamLen int) (*WPS, error) {
	g, err := sequitur.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	if maxStreamLen <= 0 {
		maxStreamLen = 100
	}
	return &WPS{
		DAG:     sequitur.NewDAG(g, maxStreamLen),
		NumRefs: g.InputLen(),
	}, nil
}
