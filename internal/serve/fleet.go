package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/fleet"
	"repro/internal/online"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Fleet endpoints: cross-session analysis over this server's live
// engines. /v1/fleet/fingerprints is the raw per-session material, and
// /v1/fleet/gather serves the same listing in the varint gather form
// the gateway pulls to merge across shards; streams, clusters, and
// drift are the computed views. Fingerprints, streams and clusters are
// FleetView routes (routes.go): their query parsing and view function
// run unchanged on a single node and on the gateway's merged
// fingerprints, so the documents are byte-identical.

// fingerprints computes one fingerprint per live session, fanned over
// the worker pool. liveSessions (not by-name lookups) so a fleet scan
// never rehydrates handoff state another shard is about to adopt.
func (s *Server) fingerprints() []*fleet.Fingerprint {
	sessions := s.liveSessions()
	fps, _ := parallel.Map(s.workers, len(sessions), func(i int) (*fleet.Fingerprint, error) {
		return fleet.New(sessions[i].name, sessions[i].snapshot()), nil
	})
	out := make([]*fleet.Fingerprint, 0, len(fps))
	for _, fp := range fps {
		if fp != nil {
			out = append(out, fp)
		}
	}
	return out
}

// handleGather serves this shard's fingerprint listing in the gather
// form: GET /v1/fleet/gather.
func (s *Server) handleGather(w http.ResponseWriter, _ *http.Request, _ string) {
	w.Header().Set("Content-Type", "application/octet-stream")
	_ = fleet.EncodeFingerprints(w, fleet.BuildFingerprintsView(s.fingerprints()))
}

// handleFleetDrift serves the profile-drift view: GET
// /v1/fleet/drift?threshold=T compares each live session's fingerprint
// against its most recent persisted history snapshot. Sessions with no
// history yet are skipped — there is nothing to have drifted from.
func (s *Server) handleFleetDrift(w http.ResponseWriter, r *http.Request, _ string) {
	if s.st == nil {
		HTTPError(w, http.StatusNotFound, "no store configured (start locserve with -store)")
		return
	}
	threshold, err := fleet.ParseThreshold(r.URL.Query().Get("threshold"), fleet.DefaultDriftThreshold)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return
	}
	// History may have been written by another process sharing the store
	// (a drained shard, a batch run); refresh once so the scan sees it.
	if err := s.st.Refresh(); err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	sessions := s.liveSessions()
	rows, err := parallel.Map(s.workers, len(sessions), func(i int) (*fleet.DriftRow, error) {
		return s.driftRow(sessions[i], threshold)
	})
	if err != nil {
		HTTPError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := make([]fleet.DriftRow, 0, len(rows))
	for _, row := range rows {
		if row != nil {
			out = append(out, *row)
		}
	}
	WriteJSON(w, fleet.BuildDriftView(out, threshold))
}

// driftRow compares one live session against its latest history
// artifact, or returns nil when the session has no baseline.
func (s *Server) driftRow(sess *session, threshold float64) (*fleet.DriftRow, error) {
	names := s.st.Names("history/" + sess.name + "/")
	if len(names) == 0 {
		return nil, nil
	}
	// Names lists sorted and history entries are zero-padded sequence
	// numbers, so the last name is the most recent close.
	art := names[len(names)-1]
	a, ok := s.st.Get(art)
	if !ok || a.Kind != store.KindSnapshot {
		return nil, nil
	}
	b, err := s.st.ReadBlob(a.Digest)
	if err != nil {
		return nil, fmt.Errorf("reading baseline %s: %w", art, err)
	}
	var base online.Snapshot
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", art, err)
	}
	live := fleet.New(sess.name, sess.snapshot())
	baseline := fleet.New(sess.name, &base)
	row := fleet.CompareDrift(live, baseline, art, threshold)
	return &row, nil
}
