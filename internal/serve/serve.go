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

// Uploads are decoded into buffers of ingestBufLen events; each full
// buffer is ingested under the session lock, so snapshots and status
// reads interleave with an upload at buffer granularity. Buffers are
// recycled through a server-wide free list that keeps at most
// freeBufs of them.
const (
	ingestBufLen = 4096
	freeBufs     = 16
)

// newIngestBuf allocates a decode buffer.
//
//lint:coldpath decode-buffer allocation; runs only until the server's free list warms up, never per record in steady state
func newIngestBuf() []trace.Event {
	return make([]trace.Event, ingestBufLen)
}

// session is one ingest stream's analysis state. The engine is
// single-threaded by design: every engine call runs under sess.mu.
// The ingest handler reads and decodes the request body with no lock
// held and takes sess.mu only to ingest each decoded buffer, so one slow
// uploader cannot stall status endpoints or other clients.
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
	// end of the previous buffer, so the server's counter sees deltas.
	lastEvictions uint64
	// evictions and snapshots are the owning server's counters.
	evictions, snapshots *obs.Counter

	// ingestWG counts in-flight ingest requests admitted past the closed
	// check; closeSession waits on it before snapshotting.
	ingestWG sync.WaitGroup
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

// ingestBody decodes one upload straight off the request body, one
// buffer at a time, and ingests each buffer into the session's engine.
// It returns the number of events decoded and the first decode error;
// decoded events are ingested even when the tail of the upload is
// corrupt. The network reads and the decode run with no lock held;
// sess.mu covers only each buffer's Ingest, so uploads to one session
// append in the order their buffers are decoded.
//
//lint:hotpath serves the live upload stream; runs per POST with the decode loop inside
func (sess *session) ingestBody(tr *trace.Reader, buf []trace.Event) (uint64, error) {
	var total uint64
	for {
		m, err := tr.ReadChunk(buf)
		if m > 0 {
			total += uint64(m)
			sess.mu.Lock()
			sess.engine.Ingest(buf[:m])
			ev := sess.engine.Evictions()
			delta := ev - sess.lastEvictions
			sess.lastEvictions = ev
			sess.mu.Unlock()
			sess.evictions.Add(delta)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return total, err
		}
	}
	// Grammar growth failures (arena symbol-space exhaustion) are
	// latched inside the engine because the per-reference append path
	// cannot return them; report the first one like any other ingest
	// error, with the decoded count alongside.
	sess.mu.Lock()
	err := sess.engine.Err()
	sess.mu.Unlock()
	return total, err
}

// Server is the locality service: a registry of per-session online
// analysis engines behind JSON endpoints. With a store attached, closed
// sessions persist their final snapshot as a history artifact.
type Server struct {
	opts    online.Options // opts.Obs is the server's registry
	workers int
	st      *store.Store // nil: sessions are ephemeral

	// The service counters, in opts.Obs.
	mSessions, mRecords, mEvictions, mSnapshots *obs.Counter

	// bufs is the free list of decode buffers shared by every upload.
	bufs chan []trace.Event

	mu       sync.Mutex
	sessions map[string]*session
}

// New returns a server whose sessions run engines with opts. Its
// metrics registry is opts.Obs, else the process default (obs.Default),
// else a fresh one, and New writes that choice back into opts.Obs: the
// service counters, the rules gauge, every engine's counters and stage
// timers, and upload decoding all count into the one registry
// /v1/metrics serves. Servers given the same opts.Obs share it: their
// counters sum, and locserve.rules reports the server made last.
// cmd/locbench is the one such caller, and it reads only stage timers.
func New(opts online.Options, workers int, st *store.Store) *Server {
	if opts.Obs == nil {
		opts.Obs = obs.Default()
	}
	if opts.Obs == nil {
		opts.Obs = obs.New()
	}
	reg := opts.Obs
	s := &Server{
		opts:       opts,
		workers:    parallel.Workers(workers),
		st:         st,
		mSessions:  reg.Counter("locserve.sessions"),
		mRecords:   reg.Counter("locserve.records"),
		mEvictions: reg.Counter("locserve.evictions"),
		mSnapshots: reg.Counter("locserve.snapshots"),
		bufs:       make(chan []trace.Event, freeBufs),
		sessions:   make(map[string]*session),
	}
	reg.GaugeFunc("locserve.rules", s.totalRules)
	return s
}

// Handler builds the service mux: the v1 API (Routes) plus the
// runtime's expvar and pprof diagnostics.
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
		name:      name,
		engine:    engine,
		evictions: s.mEvictions,
		snapshots: s.mSnapshots,
	}
	s.sessions[name] = sess
	s.mSessions.Add(1)
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

	var buf []trace.Event
	select {
	case buf = <-s.bufs:
	default:
		buf = newIngestBuf()
	}
	n, err := sess.ingestBody(trace.NewReaderObs(r.Body, s.opts.Obs), buf)
	select {
	case s.bufs <- buf:
	default:
	}
	s.mRecords.Add(n)
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
	sess.snapshots.Add(1)
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
	// Drain, holding no lock across the wait: admitted uploads finish,
	// and each has ingested its records before it returns. beginIngest
	// cannot re-admit: it checks closed under mu, and closed was set
	// under mu above.
	sess.ingestWG.Wait()

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
	s.mSnapshots.Add(1)
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
