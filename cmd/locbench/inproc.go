package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/online"
	"repro/internal/trace"
)

// inproc is the ingest-inproc workload: the engine library with no
// service around it. One goroutine ingests each session with
// IngestReader's loop (ReadChunk, then Engine.Ingest), timing every
// chunk; then it snapshots every session, and builds the fleet
// top-streams view the way a single locserve does, from a fresh
// snapshot of every engine.
type inproc struct {
	mix      mix
	sessions []*session
	fleetRef []byte // the expected top-streams document
}

func (w *inproc) inputs() []*session { return w.sessions }

func (w *inproc) setup(e *env) (err error) {
	w.sessions, err = generate(w.mix, e.seed, nil)
	return err
}

func (w *inproc) prepare(*env) (err error) {
	_, w.fleetRef, err = prepareReferences(w.sessions)
	return err
}

func (w *inproc) close() {}

func (w *inproc) round(e *env, r int, rec *recorder) error {
	opts := online.Options{}
	if e.tracing {
		opts.Obs = e.reg // stage timers for the per-layer table
	}
	engines := make([]*online.Engine, len(w.sessions))
	base := liveHeap()
	if err := e.timed(rec, func() error {
		start := time.Now()
		buf := make([]trace.Event, chunkRecords)
		for i, s := range w.sessions {
			eng := online.NewEngine(opts)
			tr := trace.NewReader(s.reader())
			for {
				t := time.Now()
				n, err := tr.ReadChunk(buf)
				if n > 0 {
					eng.Ingest(buf[:n])
					rec.op(opIngest, t, nil)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
			engines[i] = eng
		}
		rec.ingested(time.Since(start))
		return nil
	}); err != nil {
		return err
	}
	for i, s := range w.sessions {
		if eng := engines[i]; uint64(s.events) != eng.Events() || s.stats != eng.Stats() || eng.Err() != nil {
			return fmt.Errorf("%s: engine ingested %d events (want %d), err %v", s.base, eng.Events(), s.events, eng.Err())
		}
	}

	snaps := make([][]byte, len(engines))
	if err := e.timed(rec, func() error {
		for i, eng := range engines {
			t := time.Now()
			b, err := eng.Snapshot().MarshalIndent()
			rec.op(opSnapshot, t, err)
			rec.snapshotted(w.sessions[i].name(r), w.sessions[i].events)
			if err != nil {
				return err
			}
			snaps[i] = b
		}
		return nil
	}); err != nil {
		return err
	}
	for i, b := range snaps {
		if !bytes.Equal(b, w.sessions[i].ref) {
			return fmt.Errorf("%s: snapshot differs from the reference", w.sessions[i].base)
		}
	}

	var view []byte
	if err := e.timed(rec, func() error {
		t := time.Now()
		fps := make([]*fleet.Fingerprint, len(engines))
		for i, eng := range engines {
			fps[i] = fleet.New(w.sessions[i].name(r), eng.Snapshot())
			rec.snapshotted(w.sessions[i].name(r), w.sessions[i].events)
		}
		var err error
		view, err = servedJSON(fleet.TopStreams(fps, fleetTop))
		rec.op(opFleet, t, err)
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(view, w.fleetRef) {
		return fmt.Errorf("fleet top-streams view differs from the in-process reference")
	}
	held := liveHeap() - base
	runtime.KeepAlive(engines)
	rec.addRound(totalEvents(w.sessions), held)
	return nil
}
