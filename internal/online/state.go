package online

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/abstract"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Engine state codec: the serialization behind session handoff in the
// sharded deployment (drain on the old owner, rehydrate on the new).
// Unlike Snapshot — a lossy analysis result — WriteState captures the
// complete live state of all three incremental passes (statistics
// accumulator, abstraction streamer, SEQUITUR grammar) plus the ingest
// counters, so ingesting the remainder of a stream into a restored
// engine yields snapshots byte-identical to an engine that saw the
// whole stream uninterrupted. That exactness holds for every engine,
// including evicting ones (MaxRules > 0): each layer's codec preserves
// its history-dependent structures explicitly.
//
// The analysis-relevant options travel with the state and are verified
// against the options supplied at restore: silently continuing a
// session under different analysis parameters would poison the
// equivalence guarantee, so a mismatch is an error, not a merge.

var engineStateMagic = [4]byte{'O', 'E', 'N', 'G'}

const engineStateVersion = 1

// WriteState encodes the engine's full live state, returning the bytes
// written. The engine remains usable afterwards.
func (e *Engine) WriteState(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w, engineStateMagic)
	for _, v := range e.opts.stateHeader() {
		ww.Uvarint(v)
	}
	for _, v := range []uint64{e.events, e.chunks, e.evictions} {
		ww.Uvarint(v)
	}
	// Each layer's state is a section framed with its length, so a layer
	// decoder's buffered reader cannot consume into the next section.
	var sec bytes.Buffer
	for i, enc := range []func(io.Writer) (int64, error){e.acc.WriteState, e.abs.WriteState, e.g.WriteState} {
		sec.Reset()
		if _, err := enc(&sec); err != nil {
			ww.Fail(fmt.Errorf("online: encoding %s state: %w", sectionNames[i], err))
			break
		}
		ww.Uvarint(uint64(sec.Len()))
		ww.Bytes(sec.Bytes())
	}
	return ww.Close()
}

var sectionNames = [3]string{"statistics", "abstraction", "grammar"}

// stateHeader lists the analysis options in their encoded order.
func (o Options) stateHeader() []uint64 {
	return []uint64{
		engineStateVersion,
		uint64(o.HeapNaming),
		uint64(o.MinStreamLen), uint64(o.MaxStreamLen),
		math.Float64bits(o.CoverageTarget),
		o.FixedHeatMultiple,
		uint64(o.BlockSize),
		2, // min rule occurrences: live grammars are classic SEQUITUR
		uint64(o.MaxRules),
	}
}

// headerFields names stateHeader's entries.
var headerFields = [...]string{
	"version", "heap naming", "min stream length", "max stream length",
	"coverage target", "fixed heat multiple", "block size",
	"min rule occurrences", "max rules",
}

// ReadEngine decodes an engine from its live-state form. opts must
// describe the same analysis configuration the engine was serialized
// under (observability wiring — Obs — is per-process and may differ);
// a mismatch is an error. The returned engine continues ingesting
// exactly where the original stopped.
func ReadEngine(r io.Reader, opts Options) (*Engine, error) {
	opts.normalize()
	rd := wire.NewReader(r, "online: engine state", engineStateMagic)
	for i, want := range opts.stateHeader() {
		got := rd.Uvarint(headerFields[i])
		switch {
		case rd.Err() != nil:
		case i == 0 && got != want:
			rd.Failf("version %d, this build supports %d", got, want)
		case got != want:
			rd.Failf("serialized with %s %s, restore requested %s",
				headerFields[i], headerValue(i, got), headerValue(i, want))
		}
	}
	e := &Engine{opts: opts}
	e.events = rd.Uvarint("event count")
	e.chunks = rd.Uvarint("chunk count")
	e.evictions = rd.Uvarint("eviction count")

	decoders := [3]func(io.Reader) error{
		func(r io.Reader) (err error) { e.acc, err = trace.ReadStatsAccum(r); return err },
		func(r io.Reader) (err error) { e.abs, err = abstract.ReadStreamer(r, e.appendName); return err },
		func(r io.Reader) (err error) { e.g, err = sequitur.ReadState(r); return err },
	}
	for i, dec := range decoders {
		n := rd.Count(sectionNames[i]+" state length", math.MaxInt64)
		if rd.Err() != nil {
			break
		}
		// Offsets inside a section count from the section's first byte.
		sec := io.LimitReader(rd, int64(n))
		if err := dec(sec); err != nil {
			rd.Failf("%s state section: %w", sectionNames[i], err)
			break
		}
		// A layer decoder's buffered reader may stop short of the
		// section's end; skip to it.
		if _, err := io.Copy(io.Discard, sec); err != nil {
			rd.Failf("%s state section: %w", sectionNames[i], err)
		}
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	if e.abs.Mode() != opts.HeapNaming {
		return nil, fmt.Errorf("online: engine state abstraction mode %v, restore requested %v", e.abs.Mode(), opts.HeapNaming)
	}
	reg := opts.registry()
	e.obsEvents = reg.Counter("online.events")
	e.obsChunks = reg.Counter("online.chunks")
	e.obsEvict = reg.Counter("online.evictions")
	return e, nil
}

// headerValue renders header entry i for an error message.
func headerValue(i int, v uint64) string {
	switch headerFields[i] {
	case "heap naming":
		return abstract.Mode(v).String()
	case "coverage target":
		return fmt.Sprint(math.Float64frombits(v))
	}
	return fmt.Sprint(v)
}
