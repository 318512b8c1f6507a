// Package serve implements the locserve HTTP service: a registry of
// per-session online analysis engines behind JSON endpoints, factored
// out of cmd/locserve so the sharded gateway (internal/cluster) can
// spin up real shards in-process for its equivalence and scale tests.
// The metric names stay under "locserve." — the process serving them
// is still locserve, whether standalone or as a shard behind locgate.
package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/trace"
)

// metrics is the serving process's observability registry: locserve
// opts the whole process in (engines, trace decoding, the worker pool,
// and the stage runner all pick up obs.Default()) and mirrors every
// metric into expvar, so /debug/vars keeps serving the flat
// "locserve.*" names existing tooling greps for while /v1/metrics
// serves the structured snapshot with per-stage p50/p99.
var metrics = func() *obs.Registry {
	r := obs.EnableDefault()
	r.SetExpvar(true)
	return r
}()

// Service counters: handles resolved once at package level so multiple
// server instances (tests spin up several) share them.
var (
	mSessions  = metrics.Counter("locserve.sessions")
	mRecords   = metrics.Counter("locserve.records")
	mEvictions = metrics.Counter("locserve.evictions")
	mSnapshots = metrics.Counter("locserve.snapshots")
)

// registry tracks live servers so the "locserve.rules" gauge can sum
// grammar rules across every session of every server.
var registry struct {
	mu      sync.Mutex
	servers []*Server
}

func init() {
	metrics.GaugeFunc("locserve.rules", func() int64 {
		registry.mu.Lock()
		servers := append([]*Server(nil), registry.servers...)
		registry.mu.Unlock()
		var total int64
		for _, s := range servers {
			total += s.totalRules()
		}
		return total
	})
}

// Ingest batching parameters: each upload is decoded into batches of
// batchLen events and fed to the session's engine goroutine through a
// queue of queueDepth batches. The bounded queue is the backpressure
// mechanism — a client that uploads faster than the engine ingests
// blocks in its own handler, never in anyone else's.
const (
	batchLen   = 4096
	queueDepth = 8
)

// ingestBatch is one unit of decoded upload: a chunk of events, or (when
// flush is non-nil) a barrier marker the engine loop acknowledges by
// closing the channel, so a handler can wait for its batches to land.
type ingestBatch struct {
	events []trace.Event
	n      int
	flush  chan struct{}
}

// newBatch allocates a batch buffer.
//
//lint:coldpath batch-buffer allocation; runs only until the per-session recycling pool warms up, never per record in steady state
func newBatch() *ingestBatch {
	return &ingestBatch{events: make([]trace.Event, batchLen)}
}

// session is one ingest stream's analysis state. The engine is
// single-threaded by design: every mutation runs on the session's own
// ingest-loop goroutine (fed through the bounded batch queue) or under
// sess.mu (snapshots, status reads — the loop takes the mutex per
// batch). HTTP handlers decode uploads and enqueue without ever holding
// a lock across a network read, so one slow uploader cannot stall
// status endpoints or other clients.
type session struct {
	mu     sync.Mutex
	name   string
	engine *online.Engine
	// closed is set (under mu) by closeSession: an ingest that resolved
	// the session pointer before a concurrent close removed it from the
	// registry observes the flag and reports 410 Gone instead of
	// appending records into an orphaned engine.
	closed bool
	// lastEvictions tracks the engine's cumulative eviction count at the
	// end of the previous batch, so the global counter sees deltas.
	lastEvictions uint64

	// queue feeds decoded batches to the ingest loop; free recycles
	// their buffers back to decoding handlers.
	queue chan *ingestBatch
	free  chan *ingestBatch
	// ingestWG counts in-flight ingest requests admitted past the closed
	// check; loopWG tracks the ingest-loop goroutine. closeSession waits
	// on both (in that order) before snapshotting.
	ingestWG sync.WaitGroup
	loopWG   sync.WaitGroup
}

// markClosed flips the session's closed flag under the lock: after it
// returns, beginIngest admits no further uploads.
func (sess *session) markClosed() {
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
}

// beginIngest admits one upload into the session, or reports that the
// session is closed. Admitted uploads hold a slot in ingestWG, so a
// concurrent close drains them before dismantling the engine: records a
// 200 response vouches for are in the final snapshot.
func (sess *session) beginIngest() bool {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return false
	}
	sess.ingestWG.Add(1)
	sess.mu.Unlock()
	return true
}

// getBatch returns a recycled batch buffer, allocating only while the
// pool is cold.
func (sess *session) getBatch() *ingestBatch {
	select {
	case b := <-sess.free:
		return b
	default:
		return newBatch()
	}
}

// putBatch recycles a batch buffer, dropping it if the pool is full.
func (sess *session) putBatch(b *ingestBatch) {
	b.n = 0
	select {
	case sess.free <- b:
	default:
	}
}

// waitFlush enqueues a barrier and waits for the ingest loop to reach
// it: every batch enqueued before the call has been ingested when it
// returns, so the handler's status response is exact.
//
//lint:coldpath request completion barrier; runs once per POST, after the decode loop has drained
func (sess *session) waitFlush() {
	flush := make(chan struct{})
	sess.queue <- &ingestBatch{flush: flush}
	<-flush
}

// ingestBody decodes one upload straight off the request body into
// batches and feeds them to the session's ingest loop. It returns the
// number of events decoded and the first decode error; decoded events
// are ingested (and flushed) even when the tail of the upload is
// corrupt. No lock is held anywhere in this function — the network
// reads, the decode, and the (possibly blocking, backpressured) queue
// sends all run lock-free.
//
//lint:hotpath serves the live upload stream; runs per POST with the decode loop inside
func (sess *session) ingestBody(body io.Reader) (uint64, error) {
	tr := trace.NewReader(body)
	var total uint64
	var derr error
	for {
		b := sess.getBatch()
		m, err := tr.ReadChunk(b.events)
		if m > 0 {
			b.n = m
			total += uint64(m)
			sess.queue <- b
		} else {
			sess.putBatch(b)
		}
		if err != nil {
			if err != io.EOF {
				derr = err
			}
			break
		}
	}
	sess.waitFlush()
	if derr == nil {
		// Grammar growth failures (arena symbol-space exhaustion) are
		// latched inside the engine because the per-reference append
		// path cannot return them; report the first one like any other
		// ingest error, with the decoded count alongside.
		sess.mu.Lock()
		derr = sess.engine.Err()
		sess.mu.Unlock()
	}
	return total, derr
}

// ingestLoop is the session's engine goroutine: the only place engine
// mutations happen, one batch at a time in arrival order. It takes
// sess.mu per batch (so snapshots and status reads interleave at batch
// granularity) and never blocks while holding it. The loop exits when
// closeSession closes the queue after draining in-flight uploads.
//
//lint:hotpath per-batch engine loop; every uploaded record flows through here
func (sess *session) ingestLoop() {
	for b := range sess.queue {
		if b.flush != nil {
			close(b.flush)
			continue
		}
		sess.mu.Lock()
		sess.engine.Ingest(b.events[:b.n])
		ev := sess.engine.Evictions()
		delta := ev - sess.lastEvictions
		sess.lastEvictions = ev
		sess.mu.Unlock()
		mEvictions.Add(delta)
		sess.putBatch(b)
	}
}

// Server is the locality service: a registry of per-session online
// analysis engines behind JSON endpoints. With a store attached, closed
// sessions persist their final snapshot as a history artifact.
type Server struct {
	opts    online.Options
	workers int
	st      *store.Store // nil: sessions are ephemeral

	mu       sync.Mutex
	sessions map[string]*session
}

func New(opts online.Options, workers int, st *store.Store) *Server {
	s := &Server{
		opts:     opts,
		workers:  parallel.Workers(workers),
		st:       st,
		sessions: make(map[string]*session),
	}
	registry.mu.Lock()
	registry.servers = append(registry.servers, s)
	registry.mu.Unlock()
	return s
}

// Handler builds the service mux: the v1 API (Routes) plus expvar and
// pprof diagnostics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, h := range Handlers(s.local) {
		mux.Handle(path, h)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// getSession returns the named session. A session absent from memory is
// first sought in the store as handoff state (state/<name>, persisted by
// a drain on this or another shard) and rehydrated; only then, if create
// is set, is a fresh session made. The error is non-nil only when
// handoff state exists but cannot be restored — silently starting an
// empty engine over a session that has state elsewhere would poison the
// sharded deployment's equivalence guarantee.
func (s *Server) getSession(name string, create bool) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[name]
	if sess == nil && s.st != nil {
		var err error
		if sess, err = s.rehydrateLocked(name); err != nil {
			return nil, err
		}
	}
	if sess == nil && create {
		sess = s.newSession(name, online.NewEngine(s.opts))
	}
	return sess, nil
}

// stateArtifact names the handoff-state artifact for a session.
func stateArtifact(name string) string { return "state/" + name }

// rehydrateLocked restores a session from persisted handoff state, if
// any. The artifact is consumed on success — the session now lives
// here, and a second shard must not restore it too. Callers hold s.mu.
//
//lint:coldpath session handoff restore; runs once per rebalanced session, never per record
func (s *Server) rehydrateLocked(name string) (*session, error) {
	// Another process (the draining shard) wrote the artifact; refresh
	// so this handle's manifest view includes it.
	if err := s.st.Refresh(); err != nil {
		return nil, fmt.Errorf("refreshing store: %w", err)
	}
	art := stateArtifact(name)
	a, ok := s.st.Get(art)
	if !ok || a.Kind != store.KindState {
		return nil, nil
	}
	b, err := s.st.ReadBlob(a.Digest)
	if err != nil {
		return nil, fmt.Errorf("reading handoff state for %s: %w", name, err)
	}
	engine, err := online.ReadEngine(bytes.NewReader(b), s.opts)
	if err != nil {
		return nil, fmt.Errorf("restoring session %s: %w", name, err)
	}
	sess := s.newSession(name, engine)
	sess.lastEvictions = engine.Evictions()
	if err := s.st.Delete(art); err != nil {
		// The session is live here regardless; a stale artifact only
		// risks a duplicate restore if this process also dies.
		fmt.Fprintf(os.Stderr, "locserve: consuming handoff state %s: %v\n", art, err)
	}
	return sess, nil
}

// newSession registers a session around an engine (fresh, or restored
// from handoff state). Callers hold s.mu.
//
//lint:coldpath session construction; runs once per session name, not per record
func (s *Server) newSession(name string, engine *online.Engine) *session {
	sess := &session{
		name:   name,
		engine: engine,
		queue:  make(chan *ingestBatch, queueDepth),
		free:   make(chan *ingestBatch, queueDepth+2),
	}
	sess.loopWG.Add(1)
	go func() {
		defer sess.loopWG.Done()
		sess.ingestLoop()
	}()
	s.sessions[name] = sess
	mSessions.Add(1)
	return sess
}

// liveSessions snapshots the in-memory sessions in sorted name order.
// Listing paths use this instead of getSession so that enumerating
// sessions never rehydrates handoff state — a /v1/sessions fan-out or a
// metrics scrape racing a drain must not resurrect (and consume the
// state of) a session another shard is about to adopt.
func (s *Server) liveSessions() []*session {
	s.mu.Lock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (s *Server) totalRules() int64 {
	var total int64
	for _, sess := range s.liveSessions() {
		sess.mu.Lock()
		total += int64(sess.engine.Rules())
		sess.mu.Unlock()
	}
	return total
}

// sessionStatus is one row of the /v1/sessions listing (and the ingest
// response body).
type sessionStatus struct {
	Session   string `json:"session"`
	Events    uint64 `json:"events"`
	Refs      uint64 `json:"refs"`
	Rules     int    `json:"rules"`
	Evictions uint64 `json:"evictions"`
}

func (sess *session) statusLocked() sessionStatus {
	return sessionStatus{
		Session:   sess.name,
		Events:    sess.engine.Events(),
		Refs:      sess.engine.Refs(),
		Rules:     sess.engine.Rules(),
		Evictions: sess.engine.Evictions(),
	}
}

// handleIngest consumes a chunked upload of encoded trace records into
// the named session: POST /v1/ingest?session=NAME. A client streams one
// session per thread (§5.1's per-thread WPS construction maps to one
// session per thread) and may POST any number of times; records append
// in arrival order.
//
//lint:hotpath serves the live upload stream; runs per POST with the decode loop inside
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, name string) {
	sess, err := s.getSession(name, true)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !sess.beginIngest() {
		// A concurrent close finalized the session after we resolved the
		// pointer: the engine (and its final snapshot) is gone, so
		// appending would silently drop these records from history.
		HTTPError(w, http.StatusGone, "session "+name+" is closed")
		return
	}
	defer sess.ingestWG.Done()

	n, err := sess.ingestBody(r.Body)
	mRecords.Add(n)
	sess.mu.Lock()
	status := sess.statusLocked()
	sess.mu.Unlock()

	if err != nil {
		// Records decoded before the error are already ingested; report
		// both the partial progress and the failure.
		HTTPError(w, http.StatusBadRequest,
			"after "+strconv.FormatUint(n, 10)+" events: "+err.Error())
		return
	}
	writeIngestResponse(w, n, status)
}

// writeIngestResponse reports a completed upload.
//
//lint:coldpath response writer; runs once per POST, after the decode loop has drained
func writeIngestResponse(w http.ResponseWriter, n uint64, status sessionStatus) {
	WriteJSON(w, struct {
		Ingested uint64 `json:"ingested"`
		sessionStatus
	}{n, status})
}

// handleSessions lists every session: GET /v1/sessions.
func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request, _ string) {
	sessions := s.liveSessions()
	out := sessionListing{Sessions: make([]sessionStatus, 0, len(sessions))}
	for _, sess := range sessions {
		sess.mu.Lock()
		out.Sessions = append(out.Sessions, sess.statusLocked())
		sess.mu.Unlock()
	}
	WriteJSON(w, out)
}

// snapshotSession runs online detection for one session. The session
// lock covers the whole snapshot: the engine is single-threaded. A
// by-name lookup goes through getSession, so a rebalanced session the
// new owner has not yet touched rehydrates on its first snapshot.
func (s *Server) snapshotSession(name string) (*online.Snapshot, bool, error) {
	sess, err := s.getSession(name, false)
	if err != nil {
		return nil, false, err
	}
	if sess == nil {
		return nil, false, nil
	}
	return sess.snapshot(), true, nil
}

// snapshot runs online detection under the session lock.
func (sess *session) snapshot() *online.Snapshot {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	mSnapshots.Add(1)
	return sess.engine.Snapshot()
}

// handleSnapshot serves the full analysis snapshot: GET
// /v1/snapshot?session=NAME for one session (canonical bytes: identical
// to locserve -batch over the same records when eviction is off), or GET
// /v1/snapshot for every session keyed by name, the per-session
// detections fanned out across the worker pool.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request, name string) {
	if name != "" {
		// WriteJSON encodes exactly as Snapshot.MarshalIndent does.
		s.writeSession(w, name, func(sn *online.Snapshot) any { return sn })
		return
	}
	// liveSessions (not by-name lookups) so the fan-out never rehydrates
	// handoff state; the sorted order plus encoding/json's sorted map
	// keys make the merged document byte-deterministic.
	sessions := s.liveSessions()
	snaps, _ := parallel.Map(s.workers, len(sessions), func(i int) (*online.Snapshot, error) {
		return sessions[i].snapshot(), nil
	})
	out := make(map[string]*online.Snapshot, len(sessions))
	for i, sess := range sessions {
		if snaps[i] != nil {
			out[sess.name] = snaps[i]
		}
	}
	WriteJSON(w, out)
}

// section serves one snapshot section of a session.
func section(part func(*online.Snapshot) any) func(*Server, http.ResponseWriter, *http.Request, string) {
	return func(s *Server, w http.ResponseWriter, _ *http.Request, name string) { s.writeSession(w, name, part) }
}

// writeSession writes the part of one session's snapshot that part
// selects.
func (s *Server) writeSession(w http.ResponseWriter, name string, part func(*online.Snapshot) any) {
	snap, ok, err := s.snapshotSession(name)
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown session "+name)
		return
	}
	WriteJSON(w, part(snap))
}

// CloseResult is the /v1/close and /v1/drain response body (and one row
// of the close-all summary at shutdown).
type CloseResult struct {
	Session string `json:"session"`
	Events  uint64 `json:"events"`
	Refs    uint64 `json:"refs"`
	// Artifact and Digest identify what was persisted — a history
	// snapshot for a plain close, the live engine state for a handoff —
	// and are empty when the server runs without a store.
	Artifact string       `json:"artifact,omitempty"`
	Digest   store.Digest `json:"digest,omitempty"`
}

// closeSession removes one session after draining its in-flight
// uploads. A plain close (handoff false) runs a final snapshot and,
// with a store attached, persists it as a history artifact. A handoff
// close instead serializes the live engine state as state/<name>, so
// the session's next owner — another shard after a rebalance, or this
// server after a restart — continues the analysis exactly where it
// stopped (the state codec is exact; see internal/online).
//
// The session is removed from the registry first, so concurrent
// requests see a consistent "gone" state; the closed flag then catches
// ingests that resolved the pointer before the removal (they get 410).
// In-flight uploads drain before the final snapshot or serialization —
// every record a 200 ingest response vouched for is accounted for.
func (s *Server) closeSession(name string, handoff bool) (CloseResult, bool, error) {
	s.mu.Lock()
	sess := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if sess == nil {
		return CloseResult{}, false, nil
	}
	sess.markClosed()
	// Drain, holding no lock across the waits: admitted uploads finish
	// (each ends with an acknowledged flush barrier, so their batches are
	// ingested), then the engine loop exits. beginIngest cannot re-admit:
	// it checks closed under mu, and closed was set under mu above.
	sess.ingestWG.Wait()
	close(sess.queue)
	sess.loopWG.Wait()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	res := CloseResult{Session: name, Events: sess.engine.Events(), Refs: sess.engine.Refs()}
	if handoff {
		err := s.persistStateLocked(sess, &res)
		return res, true, err
	}
	if s.st == nil {
		return res, true, nil
	}
	mSnapshots.Add(1)
	b, err := sess.engine.Snapshot().MarshalIndent()
	if err != nil {
		return res, true, err
	}
	// History entries are numbered per session in arrival order; the
	// store lists names sorted, so zero-padding keeps history ordered.
	seq := len(s.st.Names("history/"+name+"/")) + 1
	return res, true, s.persist(&res, fmt.Sprintf("history/%s/%04d", name, seq), store.KindSnapshot, b)
}

// persistStateLocked serializes a drained session's engine into the
// store as its handoff artifact. Callers hold sess.mu.
//
//lint:coldpath handoff serialization; runs once per drained session, never per record
func (s *Server) persistStateLocked(sess *session, res *CloseResult) error {
	if s.st == nil {
		return fmt.Errorf("no store configured (start locserve with -store)")
	}
	var buf bytes.Buffer
	if _, err := sess.engine.WriteState(&buf); err != nil {
		return fmt.Errorf("serializing session %s: %w", sess.name, err)
	}
	return s.persist(res, stateArtifact(sess.name), store.KindState, buf.Bytes())
}

// persist stores b as the named artifact of a closing session and
// records it in res.
func (s *Server) persist(res *CloseResult, name, kind string, b []byte) error {
	d, n, err := s.st.PutBytes(b)
	if err != nil {
		return err
	}
	res.Artifact, res.Digest = name, d
	return s.st.Put(name, store.Artifact{
		Kind: kind, Digest: d, Size: n,
		Meta: map[string]string{"session": res.Session, "events": strconv.FormatUint(res.Events, 10)},
	})
}

// CloseAll closes every live session, used at graceful shutdown. With
// handoff set (and a store attached) sessions persist live state and
// survive the restart; otherwise a store-backed server persists final
// history snapshots.
func (s *Server) CloseAll(handoff bool) []CloseResult {
	var out []CloseResult
	for _, sess := range s.liveSessions() {
		if res, ok, err := s.closeSession(sess.name, handoff); ok {
			if err != nil {
				fmt.Fprintf(os.Stderr, "locserve: persisting %s: %v\n", sess.name, err)
			}
			out = append(out, res)
		}
	}
	return out
}

// handleClose finalizes a session: POST /v1/close?session=NAME runs one
// last snapshot, persists it to the store (when configured), and removes
// the session's engine. The response reports the history artifact so a
// client (or CI job) can hand the ref straight to locdiff. With
// &state=1 the close is a handoff instead: the live engine state is
// persisted (store required) and the session's next owner resumes it.
func (s *Server) handleClose(w http.ResponseWriter, r *http.Request, name string) {
	handoff := r.URL.Query().Get("state") == "1"
	if handoff && s.st == nil {
		HTTPError(w, http.StatusConflict, "state=1 requires a store (start locserve with -store)")
		return
	}
	res, ok, err := s.closeSession(name, handoff)
	if !ok {
		HTTPError(w, http.StatusNotFound, "unknown session "+name)
		return
	}
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, fmt.Sprintf("persisting session: %v", err))
		return
	}
	WriteJSON(w, res)
}

// handleDrain evacuates sessions for a rebalance: POST /v1/drain hands
// off every session (POST /v1/drain?session=A&session=B just the named
// ones) — each drains its in-flight uploads, serializes its live engine
// state into the shared store, and is removed. The gateway calls this
// on the old owner before re-routing; the new owner rehydrates from the
// state artifact on its first ingest or snapshot.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request, _ string) {
	if s.st == nil {
		HTTPError(w, http.StatusConflict, "drain requires a store (start locserve with -store)")
		return
	}
	names := r.URL.Query()["session"]
	if len(names) == 0 {
		for _, sess := range s.liveSessions() {
			names = append(names, sess.name)
		}
	}
	out := make([]CloseResult, 0, len(names))
	for _, name := range names {
		res, ok, err := s.closeSession(name, true)
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, fmt.Sprintf("draining %s: %v", name, err))
			return
		}
		if ok {
			out = append(out, res)
		}
	}
	WriteJSON(w, struct {
		Drained []CloseResult `json:"drained"`
	}{out})
}

// historyEntry is one row of the /v1/history listing.
type historyEntry struct {
	Name    string       `json:"name"`
	Session string       `json:"session"`
	Events  string       `json:"events,omitempty"`
	Digest  store.Digest `json:"digest"`
	Size    int64        `json:"size"`
}

// handleHistory serves persisted snapshots: GET /v1/history lists every
// history artifact; GET /v1/history?name=history/S/0001 returns the
// stored snapshot JSON byte-for-byte.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, _ string) {
	if s.st == nil {
		HTTPError(w, http.StatusNotFound, "no store configured (start locserve with -store)")
		return
	}
	// Another process sharing the store (another shard, a batch run) may
	// have closed sessions since this handle last looked; refreshing
	// first is what lets any one shard answer for the cluster.
	if err := s.st.Refresh(); err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if name := r.URL.Query().Get("name"); name != "" {
		a, ok := s.st.Get(name)
		if !ok || a.Kind != store.KindSnapshot {
			HTTPError(w, http.StatusNotFound, "unknown history artifact "+name)
			return
		}
		b, err := s.st.ReadBlob(a.Digest)
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
		return
	}
	names := s.st.Names("history/")
	out := make([]historyEntry, 0, len(names))
	for _, n := range names {
		a, ok := s.st.Get(n)
		if !ok {
			continue
		}
		out = append(out, historyEntry{
			Name:    n,
			Session: a.Meta["session"],
			Events:  a.Meta["events"],
			Digest:  a.Digest,
			Size:    a.Size,
		})
	}
	WriteJSON(w, struct {
		History []historyEntry `json:"history"`
	}{out})
}

// WriteJSON writes v as indented JSON: the one encoder behind every
// document a node or the gateway serves.
func WriteJSON(w http.ResponseWriter, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A write failure here means the client went away; there is no
	// useful recovery from a handler.
	_, _ = w.Write(append(b, '\n'))
}

// HTTPError writes a JSON error response.
//
//lint:coldpath error responses; never taken on the per-record decode loop
func HTTPError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
