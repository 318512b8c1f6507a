// Command locserve is the online locality service: a streaming ingest
// server that builds each session's SEQUITUR grammar incrementally as
// 9-byte trace records arrive and answers live hot-data-stream queries —
// the deployment §6 sketches, where a runtime optimizer consumes hot
// data streams instead of a post-mortem trace file.
//
// Clients POST encoded records to /v1/ingest?session=NAME (one session
// per thread, matching §5.1's per-thread WPS construction; any number of
// chunked POSTs append in order) and read analysis from:
//
//	/v1/sessions              session list with live counters
//	/v1/snapshot?session=S    full analysis snapshot (Table 1, grammar,
//	                          threshold, hot streams, locality metrics)
//	/v1/snapshot              all sessions, detections run in parallel
//	/v1/stats?session=S       Table-1 statistics only
//	/v1/hotstreams?session=S  threshold + hot streams only
//	/v1/locality?session=S    inherent/realized locality metrics only
//	/v1/metrics               the process's metrics registry: every
//	                          counter/gauge (sessions, records,
//	                          evictions, snapshots, live grammar rules,
//	                          decode, worker pool, store) plus per-stage
//	                          latency histograms (count, total, p50,
//	                          p99) for the analysis pipeline's stages
//	/debug/vars               Go runtime memstats and command line
//	/debug/pprof/             CPU/heap profiles of the live service
//
// With eviction off (-max-rules 0) a snapshot of a fully uploaded trace
// is byte-identical to `locserve -batch trace` over the same file; the
// CI smoke test diffs the two. -max-rules bounds grammar memory for
// unbounded streams at the cost of that exactness.
//
// Usage:
//
//	locserve -addr :8080
//	locserve -addr :8080 -max-rules 4096
//	locserve -addr :8080 -store ./artifacts   # persist session snapshots
//	locserve -batch app.trace        # batch reference snapshot to stdout
//
// With -store DIR, sessions become durable: POST /v1/close?session=S
// takes a final snapshot, writes it into the content-addressed artifact
// store at DIR as history/S/NNNN, and retires the session; GET
// /v1/history lists persisted snapshots and GET /v1/history?name=...
// serves one byte-for-byte (a ready-made input for locdiff). On SIGINT/
// SIGTERM every live session is closed and persisted before exit.
//
// The store also carries live sessions between processes: POST
// /v1/close?session=S&state=1 (or POST /v1/drain for many sessions at
// once) serializes the session's exact engine state as state/S instead
// of finalizing it, and the next server that sees the session — this
// one after a restart, or another shard sharing -store behind the
// locgate gateway — rehydrates it transparently on first access and
// continues the analysis with zero drift. -handoff makes the SIGTERM
// path do the same, so a shard taken down mid-run loses nothing.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	batch := flag.String("batch", "", "batch mode: analyze a trace file and print the snapshot JSON, no server")
	storeDir := flag.String("store", "", "artifact store directory: persist per-session snapshots on close (empty = ephemeral sessions)")
	handoff := flag.Bool("handoff", false, "persist live engine state (not final snapshots) at shutdown so sessions resume exactly on restart or on another shard sharing -store")
	maxRules := flag.Int("max-rules", 0, "bound the live grammar's rule table per session (0 = exact, unbounded)")
	params := cliflags.AnalysisFlags(flag.CommandLine)
	workers := cliflags.WorkersFlag(flag.CommandLine)
	flag.Parse()

	opts := params.OnlineOptions()
	opts.MaxRules = *maxRules

	if *batch != "" {
		if err := runBatch(*batch, params.CoreOptions()); err != nil {
			fmt.Fprintln(os.Stderr, "locserve:", err)
			os.Exit(1)
		}
		return
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "locserve:", err)
			os.Exit(1)
		}
	}

	// One registry for the whole process: the server adopts the default,
	// so /v1/metrics also serves the decode, worker-pool and store
	// metrics of the layers that count into it.
	obs.EnableDefault()
	srv := serve.New(opts, *workers, st)

	// The listener runs in a goroutine joined through errCh; main owns
	// shutdown. On SIGINT/SIGTERM it closes (and, with -store, persists)
	// every live session, then tears the listener down, which also
	// unblocks the goroutine.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- hs.ListenAndServe()
	}()

	fmt.Fprintf(os.Stderr, "locserve: listening on %s (max-rules %d)\n", *addr, *maxRules)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "locserve:", err)
		os.Exit(1)
	case <-sig:
	}

	closed := srv.CloseAll(*handoff && st != nil)
	fmt.Fprintf(os.Stderr, "locserve: shutting down, closed %d sessions\n", len(closed))
	for _, c := range closed {
		if c.Artifact != "" {
			fmt.Fprintf(os.Stderr, "locserve:   %s -> %s\n", c.Session, c.Artifact)
		}
	}
	if err := hs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "locserve: closing listener:", err)
	}
	<-errCh // join the listener goroutine; ListenAndServe has returned
}

// runBatch prints the batch pipeline's snapshot for a trace file in the
// exact bytes the server's /v1/snapshot endpoint produces for the same
// records with eviction off — the reference side of the equivalence
// guarantee, and the oracle the CI smoke test diffs against.
func runBatch(path string, opts core.Options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	opts.SkipPotential = true
	a, err := core.AnalyzeStream(trace.NewReader(f), opts)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return online.SnapshotFromAnalysis(a).WriteJSON(os.Stdout)
}
