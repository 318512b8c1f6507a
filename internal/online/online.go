// Package online is the live counterpart of the batch analysis pipeline:
// an incremental SEQUITUR builder plus online hot-data-stream detection,
// consuming a trace as it arrives (chunked network uploads, pipes) and
// answering "what are the hot data streams right now" at any point — the
// role §6 sketches for a runtime optimizer consuming hot data streams as
// its optimization abstraction, rather than a post-mortem file pass.
//
// An Engine folds three incremental passes over each ingested chunk:
// Table-1 statistics (trace.StatsAccum), address abstraction
// (abstract.SinkStreamer, which retains only the heap map, not the
// per-reference arrays), and SEQUITUR grammar growth (sequitur's Append
// is online by construction). Snapshot then freezes the grammar into its
// flat DAG view, expands the reference sequence from it once, and runs
// the same threshold search, detection, and exact measurement passes the
// batch pipeline runs, every measurement scanning that one expansion.
// The engine remembers the threshold its last search returned, keyed by
// the event count it saw, so a repeat Snapshot of an unchanged session
// runs one detection probe at that threshold instead of the whole
// search.
//
// Equivalence guarantee: with eviction disabled (Options.MaxRules == 0),
// a Snapshot taken after the trace is fully consumed is bit-identical to
// the level-0 results of batch core.Analyze/core.AnalyzeStream over the
// same records — same grammar, same threshold, same hot streams, same
// locality metrics — regardless of how the stream was chunked. Every
// stage is deterministic and chunking only changes call boundaries, not
// the event order any stage observes; TestOnlineMatchesBatch enforces
// the guarantee byte-for-byte on the marshalled snapshots.
//
// With eviction enabled (MaxRules > 0), the grammar's rule table is
// bounded: whenever a chunk leaves more than MaxRules live rules, the
// coldest rules are inlined away (sequitur.EvictColdRules). Eviction
// preserves the represented sequence exactly — measurement stays exact —
// but discards compression structure, so detection sees fewer candidate
// sites and the hot-stream set becomes an approximation biased toward
// still-hot structure. The root rule's spine still grows with the
// compressed residue of the input; MaxRules bounds the rule hierarchy,
// which dominates for the highly regular streams hot-stream analysis
// targets.
package online

import (
	"io"

	"repro/internal/abstract"
	"repro/internal/hotstream"
	"repro/internal/locality"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// Options configures an Engine. The zero value uses the paper's
// parameters with eviction disabled (exact mode).
type Options struct {
	// HeapNaming selects the address abstraction (default: birth IDs).
	HeapNaming abstract.Mode
	// MinStreamLen/MaxStreamLen bound hot data streams (paper: 2, 100).
	// They and CoverageTarget default as hotstream.SearchConfig.Normalized
	// does, the same rule the batch pipeline applies.
	MinStreamLen, MaxStreamLen int
	// CoverageTarget is the hot-stream coverage constraint driving the
	// threshold search (paper: 0.90).
	CoverageTarget float64
	// FixedHeatMultiple pins the locality threshold to an explicit
	// unit-uniform-access multiple, bypassing the coverage-driven search
	// (recommended for high-rate serving: a snapshot then runs one
	// detection pass instead of a search). Zero means search.
	FixedHeatMultiple uint64
	// BlockSize is the cache block size for packing-efficiency metrics
	// (paper: 64).
	BlockSize int
	// MaxRules bounds the live grammar's rule table: after any chunk
	// that leaves more rules live, the coldest are evicted. 0 disables
	// eviction and makes snapshots bit-identical to the batch pipeline.
	MaxRules int
	// Obs attaches a metrics registry: ingest counters, live-grammar
	// gauges, and per-stage snapshot timings. Nil falls back to
	// obs.Default() (itself nil — disabled — unless the process opted
	// in). Instrumentation never changes analysis results.
	Obs *obs.Registry
}

// registry resolves the effective metrics registry for an engine.
func (o Options) registry() *obs.Registry {
	if o.Obs != nil {
		return o.Obs
	}
	return obs.Default()
}

func (o *Options) normalize() {
	w := hotstream.SearchConfig{
		MinLen: o.MinStreamLen, MaxLen: o.MaxStreamLen, CoverageTarget: o.CoverageTarget,
	}.Normalized()
	o.MinStreamLen, o.MaxStreamLen, o.CoverageTarget = w.MinLen, w.MaxLen, w.CoverageTarget
	if o.BlockSize <= 0 {
		o.BlockSize = 64
	}
	if o.MaxRules < 0 {
		o.MaxRules = 0
	}
}

// ingestChunk is the decode granularity of IngestReader: small enough to
// keep eviction responsive, large enough to amortize per-chunk costs.
const ingestChunk = 4096

// Engine is one session's incremental analysis state. An Engine is not
// safe for concurrent use; callers (cmd/locserve) serialize access per
// session and run distinct sessions in parallel.
type Engine struct {
	opts Options
	acc  *trace.StatsAccum
	abs  *abstract.Streamer
	g    *sequitur.Grammar

	events    uint64
	chunks    uint64
	evictions uint64

	// memo is what the last Snapshot that measured learned, keyed by
	// the event count it ran at. A later Snapshot at the same count
	// reuses it instead of searching and scanning: only a non-empty
	// Ingest changes the input, and it advances events.
	memo snapshotMemo

	// appendErr latches the first grammar growth failure (the arena's
	// typed symbol-space overflow). The abstraction sink that feeds
	// Append cannot propagate errors through its per-reference callback,
	// so the engine records the first one here; IngestReader and Err
	// surface it. Once set, the grammar refuses further growth but stays
	// valid and snapshottable.
	appendErr error

	// Metric handles are resolved once at construction (nil when
	// observability is off), so the per-chunk ingest cost is one
	// nil-check per counter, not a registry lookup.
	obsEvents *obs.Counter
	obsChunks *obs.Counter
	obsEvict  *obs.Counter
}

// NewEngine returns an empty engine.
//
//lint:coldpath engine construction; runs once per session, never per chunk or record
func NewEngine(opts Options) *Engine {
	opts.normalize()
	e := &Engine{
		opts: opts,
		acc:  trace.NewStatsAccum(),
		g:    sequitur.New(),
	}
	e.abs = abstract.New(opts.HeapNaming).SinkStreamer(e.appendName)
	reg := opts.registry()
	e.obsEvents = reg.Counter("online.events")
	e.obsChunks = reg.Counter("online.chunks")
	e.obsEvict = reg.Counter("online.evictions")
	return e
}

// appendName is the abstraction sink: it feeds one abstracted reference
// to the grammar, latching the first growth failure.
//
//lint:hotpath per-reference grammar append on the live ingest path
func (e *Engine) appendName(name uint64, pc, addr uint32) {
	if err := e.g.Append(name); err != nil && e.appendErr == nil {
		e.appendErr = err
	}
}

// Err returns the first grammar growth failure latched during ingest
// (nil in any session that stays within the arena's 32-bit symbol
// space). After a non-nil Err, already-ingested state remains valid and
// snapshottable, but further references no longer extend the grammar.
func (e *Engine) Err() error { return e.appendErr }

// Ingest consumes one chunk of trace events in order, then applies the
// eviction policy.
//
//lint:hotpath per-chunk ingest; runs once per ReadChunk batch on the live path
func (e *Engine) Ingest(events []trace.Event) {
	if len(events) == 0 {
		return
	}
	for _, ev := range events {
		e.acc.Add(ev)
		e.abs.Process(ev)
	}
	e.events += uint64(len(events))
	e.chunks++
	e.obsEvents.Add(uint64(len(events)))
	e.obsChunks.Inc()
	e.maybeEvict()
}

// IngestReader decodes an encoded record stream (a network upload, a
// pipe) chunk by chunk into the engine, returning the number of events
// consumed and the first decode error, if any. Events decoded before an
// error are already ingested.
func (e *Engine) IngestReader(r io.Reader) (uint64, error) {
	tr := trace.NewReader(r)
	buf := make([]trace.Event, ingestChunk)
	var total uint64
	for {
		n, err := tr.ReadChunk(buf)
		if n > 0 {
			e.Ingest(buf[:n])
			total += uint64(n)
		}
		if err == io.EOF {
			return total, e.appendErr
		}
		if err != nil {
			return total, err
		}
		if e.appendErr != nil {
			return total, e.appendErr
		}
	}
}

// maybeEvict applies the MaxRules bound after a chunk.
func (e *Engine) maybeEvict() {
	if e.opts.MaxRules > 0 && e.g.NumRules() > e.opts.MaxRules {
		n := uint64(e.g.EvictColdRules(e.opts.MaxRules))
		e.evictions += n
		e.obsEvict.Add(n)
	}
}

// Events returns the number of trace events ingested (references plus
// bookkeeping records).
func (e *Engine) Events() uint64 { return e.events }

// Refs returns the number of abstracted references fed to the grammar.
func (e *Engine) Refs() uint64 { return e.g.InputLen() }

// Rules returns the live grammar's rule count (including the root).
func (e *Engine) Rules() int { return e.g.NumRules() }

// Evictions returns the cumulative number of rules evicted.
func (e *Engine) Evictions() uint64 { return e.evictions }

// Stats returns the Table-1 statistics accumulated so far.
func (e *Engine) Stats() trace.Stats { return e.acc.Stats() }

// snapshotMemo is a threshold and the measurement counts taken at it
// (hotstream.Measurement.Counts, a few bytes per detected stream), valid
// while the engine's event count equals at. Nil counts mean nothing is
// remembered.
type snapshotMemo struct {
	at     uint64
	th     hotstream.Threshold
	counts []byte
}

// Snapshot runs online hot-data-stream detection over everything
// ingested so far: the grammar is frozen into its DAG view and the
// reference sequence is expanded from the DAG once, the heat threshold
// is recomputed (searched, or fixed via FixedHeatMultiple), streams are
// detected on the DAG and measured exactly against that expansion, and
// the locality metrics are summarized. A search already detects and
// measures at the heat it returns, so the detect and measure stages only
// do work for a fixed multiple or a remembered threshold.
//
// Every Snapshot that measures remembers its threshold and the matching
// pass's integer counts (a few bytes per detected stream) with the event
// count it ran at. A later Snapshot at the same count skips the search,
// the expansion and the scan: it detects once at the remembered heat,
// which yields exactly the streams that were measured, and replays the
// counts onto them (hotstream.Replay), so the snapshot's bytes are
// unchanged. A record that does not match the detected streams is
// refused and the snapshot measures instead. Any non-empty Ingest
// advances the count (eviction runs only inside Ingest), and a restored
// engine starts with nothing remembered. Nothing else computed here
// outlives the call, the DAG and the expansion (8 bytes per reference)
// included; the engine remains appendable afterwards.
//
// Every phase runs as a named stage through the shared runner
// (internal/pipeline) — the same stage names the batch pipeline uses —
// so a serving process's obs registry accumulates per-stage latency
// histograms across snapshots and CPU profiles carry stage labels.
func (e *Engine) Snapshot() *Snapshot {
	refs := e.g.InputLen()
	hit := e.memo.counts != nil && e.memo.at == e.events
	var stats trace.Stats
	var dag *sequitur.DAG
	var seq []uint64
	var th hotstream.Threshold
	var cfg hotstream.Config
	var streams []*hotstream.Stream
	var meas *hotstream.Measurement
	var sum locality.Summary
	var grammar sequitur.Stats
	_ = pipeline.Run(e.opts.registry(),
		pipeline.Stage{Name: pipeline.StageStats, Run: func() error {
			stats = e.acc.Stats()
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageSequitur, Run: func() error {
			dag = sequitur.NewDAG(e.g, e.opts.MaxStreamLen)
			grammar = dag.ComputeStats()
			if !hit {
				seq = dag.Expand()
			}
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageThreshold, Run: func() error {
			switch {
			case e.opts.FixedHeatMultiple > 0:
				th = hotstream.FixedThreshold(e.opts.FixedHeatMultiple, refs, stats.Addresses)
			case hit:
				th = e.memo.th
			default:
				th, meas = hotstream.FindThreshold(dag, seq, refs, stats.Addresses, hotstream.SearchConfig{
					MinLen:         e.opts.MinStreamLen,
					MaxLen:         e.opts.MaxStreamLen,
					CoverageTarget: e.opts.CoverageTarget,
				})
			}
			cfg = hotstream.Config{MinLen: e.opts.MinStreamLen, MaxLen: e.opts.MaxStreamLen, Heat: th.Heat}
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageDetect, Run: func() error {
			if meas == nil {
				streams = hotstream.Detect(dag, cfg)
			}
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageMeasure, Run: func() error {
			measured := meas != nil
			if meas == nil && hit {
				meas, _ = hotstream.Replay(streams, e.memo.counts)
			}
			if meas == nil {
				if seq == nil {
					seq = dag.Expand()
				}
				meas = hotstream.Measure(seq, streams, cfg, 0, false)
				measured = true
			}
			th.Coverage = meas.Coverage()
			if measured {
				e.memo = snapshotMemo{at: e.events, th: th, counts: meas.Counts()}
			}
			return nil
		}},
		pipeline.Stage{Name: pipeline.StageSummary, Run: func() error {
			sum = locality.Summarize(meas.Streams, e.abs.Objects(), e.opts.BlockSize)
			return nil
		}},
	)
	stackRefs, unknownRefs := e.abs.Excluded()
	return buildSnapshot(snapshotInputs{
		Stats:       stats,
		Names:       refs,
		StackRefs:   stackRefs,
		UnknownRefs: unknownRefs,
		Objects:     len(e.abs.Objects()),
		Grammar:     grammar,
		Evictions:   e.evictions,
		Threshold:   th,
		Streams:     meas.Streams,
		Coverage:    meas.Coverage(),
		Summary:     sum,
	})
}
