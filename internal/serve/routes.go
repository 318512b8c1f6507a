package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/online"
)

// The /v1 API is declared once, in Routes. Server.Handler and the
// gateway in internal/cluster both build their muxes from it through the
// same method and session checks (Route.Wrap), and the gateway writes
// every merged document with the encoder a single node uses (WriteJSON):
// that is what makes the gateway's bytes match a single node's. A new
// endpoint is one more entry here.

// Class says how the gateway serves a route.
type Class int

const (
	// ShardOnly routes are served by each shard and not by the gateway.
	ShardOnly Class = iota
	// Owner routes go to the shard that owns ?session=.
	Owner
	// AnyShard routes read only the store every shard shares, so one
	// shard's answer is the cluster's.
	AnyShard
	// FanOut routes ask every shard and combine the answers with Merge;
	// a request naming a session goes to that session's owner instead.
	FanOut
	// FleetView routes merge every shard's fingerprints and run View
	// over them, as a single node runs it over its own sessions.
	FleetView
)

// SessionParam says what a route does with ?session=.
type SessionParam int

const (
	NoSession   SessionParam = iota // not read
	AnySession                      // optional: one session when named, else all
	NeedSession                     // required: 400 without it
)

// Handler serves a route once Route.Wrap's checks passed; session is
// the ?session= value when the route reads one.
type Handler func(w http.ResponseWriter, r *http.Request, session string)

// ViewFunc computes one fleet document over a fingerprint set.
type ViewFunc func(fps []*fleet.Fingerprint, workers int) any

// Route is one /v1 endpoint.
type Route struct {
	Path    string
	Methods []string // the first is named in the 405 answer
	Session SessionParam
	Class   Class
	// Local serves the route on a single node (FleetView routes are
	// served from View instead).
	Local func(s *Server, w http.ResponseWriter, r *http.Request, session string)
	// Merge combines every shard's 200 answer to a FanOut route.
	Merge func(q url.Values, bodies [][]byte) (any, error)
	// View parses a FleetView query (an error is the client's, 400) and
	// returns the view it asks for.
	View func(q url.Values) (ViewFunc, error)
}

var (
	onlyGet   = []string{http.MethodGet}
	onlyPost  = []string{http.MethodPost}
	getOrHead = []string{http.MethodGet, http.MethodHead}
)

// fingerprintsPath is the route a gateway gathers FleetView input from.
const fingerprintsPath = "/v1/fleet/fingerprints"

// Routes is the /v1 API.
var Routes = []Route{
	{Path: "/v1/ingest", Methods: onlyPost, Session: NeedSession, Class: Owner, Local: (*Server).handleIngest},
	{Path: "/v1/close", Methods: onlyPost, Session: NeedSession, Class: Owner, Local: (*Server).handleClose},
	{Path: "/v1/drain", Methods: onlyPost, Class: ShardOnly, Local: (*Server).handleDrain},
	{Path: "/v1/history", Methods: onlyGet, Class: AnyShard, Local: (*Server).handleHistory},
	// HEAD answers without building the listing: the cheap liveness
	// probe the gateway's shard health checker sends every cycle.
	{Path: "/v1/sessions", Methods: getOrHead, Class: FanOut, Local: (*Server).handleSessions, Merge: mergeSessions},
	{Path: "/v1/snapshot", Methods: onlyGet, Session: AnySession, Class: FanOut, Local: (*Server).handleSnapshot, Merge: mergeSnapshots},
	{Path: "/v1/stats", Methods: onlyGet, Session: NeedSession, Class: Owner,
		Local: section(func(sn *online.Snapshot) any { return sn.Trace })},
	{Path: "/v1/hotstreams", Methods: onlyGet, Session: NeedSession, Class: Owner,
		Local: section(func(sn *online.Snapshot) any {
			return struct {
				Threshold  any `json:"threshold"`
				HotStreams any `json:"hotStreams"`
			}{sn.Threshold, sn.HotStreams}
		})},
	{Path: "/v1/locality", Methods: onlyGet, Session: NeedSession, Class: Owner,
		Local: section(func(sn *online.Snapshot) any { return sn.Locality })},
	// Every counter, gauge and duration histogram in the process
	// registry; a gateway adds its own to the shards' sum.
	{Path: "/v1/metrics", Methods: onlyGet, Class: FanOut,
		Local: func(_ *Server, w http.ResponseWriter, _ *http.Request, _ string) { WriteJSON(w, metrics.Snapshot()) },
		Merge: mergeMetrics},
	{Path: fingerprintsPath, Methods: onlyGet, Class: FleetView,
		View: func(url.Values) (ViewFunc, error) {
			return func(fps []*fleet.Fingerprint, _ int) any { return fleet.BuildFingerprintsView(fps) }, nil
		}},
	// ?top=N (0 = all).
	{Path: "/v1/fleet/streams", Methods: onlyGet, Class: FleetView,
		View: func(q url.Values) (ViewFunc, error) {
			top, err := fleet.ParseTop(q.Get("top"))
			return func(fps []*fleet.Fingerprint, _ int) any { return fleet.TopStreams(fps, top) }, err
		}},
	// ?threshold=T. Clustering does not decompose per shard (one cluster
	// may span shards), which is why the gateway clusters the merged
	// fingerprints instead of merging per-shard clusterings.
	{Path: "/v1/fleet/clusters", Methods: onlyGet, Class: FleetView,
		View: func(q url.Values) (ViewFunc, error) {
			threshold, err := fleet.ParseThreshold(q.Get("threshold"), fleet.DefaultClusterThreshold)
			return func(fps []*fleet.Fingerprint, workers int) any { return fleet.ClusterView(fps, threshold, workers) }, err
		}},
	// Drift decomposes per session and needs the store's history, so
	// each shard computes its own rows and the gateway re-sorts them.
	{Path: "/v1/fleet/drift", Methods: onlyGet, Class: FanOut, Local: (*Server).handleFleetDrift, Merge: mergeDrift},
}

// Handlers maps each route's path to the Handler that handler returns
// for it (nil leaves the route out), behind the route's checks.
func Handlers(handler func(*Route) Handler) map[string]http.Handler {
	out := make(map[string]http.Handler, len(Routes))
	for i := range Routes {
		rt := &Routes[i]
		if h := handler(rt); h != nil {
			out[rt.Path] = rt.Wrap(h)
		}
	}
	return out
}

// Wrap applies the checks every route shares: a method the route does
// not admit is 405, a missing required session is 400, and an admitted
// HEAD is 200 with no body.
func (rt *Route) Wrap(h Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(rt.Methods, r.Method) {
			HTTPError(w, http.StatusMethodNotAllowed, rt.Methods[0]+" required")
			return
		}
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusOK)
			return
		}
		var session string
		if rt.Session != NoSession {
			session = r.URL.Query().Get("session")
			if session == "" && rt.Session == NeedSession {
				HTTPError(w, http.StatusBadRequest, "session query parameter required")
				return
			}
		}
		h(w, r, session)
	}
}

// local is the single-node Handler for a route.
func (s *Server) local(rt *Route) Handler {
	if rt.View != nil {
		return func(w http.ResponseWriter, r *http.Request, _ string) {
			view, err := rt.View(r.URL.Query())
			if err != nil {
				HTTPError(w, http.StatusBadRequest, err.Error())
				return
			}
			WriteJSON(w, view(s.fingerprints(), s.workers))
		}
	}
	return func(w http.ResponseWriter, r *http.Request, session string) { rt.Local(s, w, r, session) }
}

// Gather says how a gateway answers a FanOut or FleetView request: the
// path and query to ask every shard, and how to combine their 200
// answers. An error is the client's (400), found before any shard is
// asked.
func (rt *Route) Gather(u *url.URL, workers int) (string, func(bodies [][]byte) (any, error), error) {
	q := u.Query()
	if rt.View == nil {
		return rt.Path + "?" + u.RawQuery, func(bodies [][]byte) (any, error) { return rt.Merge(q, bodies) }, nil
	}
	view, err := rt.View(q)
	return fingerprintsPath, func(bodies [][]byte) (any, error) {
		fps, err := mergeFingerprints(bodies)
		return view(fps, workers), err
	}, err
}

// decodeEach decodes every shard answer as a T.
func decodeEach[T any](bodies [][]byte) ([]T, error) {
	out := make([]T, len(bodies))
	for i, b := range bodies {
		if err := json.Unmarshal(b, &out[i]); err != nil {
			return nil, fmt.Errorf("shard answer %d of %d: %w", i+1, len(bodies), err)
		}
	}
	return out, nil
}

// mergeFingerprints unions the shards' fingerprint listings: each
// session lives on one shard, so this is the set a single node holding
// every session would fingerprint.
func mergeFingerprints(bodies [][]byte) ([]*fleet.Fingerprint, error) {
	parts, err := decodeEach[fleet.FingerprintsView](bodies)
	var fps []*fleet.Fingerprint
	for _, p := range parts {
		fps = append(fps, p.Fingerprints...)
	}
	return fps, err
}

// sessionListing is the /v1/sessions document.
type sessionListing struct {
	Sessions []sessionStatus `json:"sessions"`
}

// mergeSessions lists every shard's rows sorted by session, the order a
// single node lists in.
func mergeSessions(_ url.Values, bodies [][]byte) (any, error) {
	parts, err := decodeEach[sessionListing](bodies)
	out := sessionListing{Sessions: make([]sessionStatus, 0, 16)}
	for _, p := range parts {
		out.Sessions = append(out.Sessions, p.Sessions...)
	}
	sort.Slice(out.Sessions, func(i, j int) bool { return out.Sessions[i].Session < out.Sessions[j].Session })
	return out, err
}

// mergeSnapshots merges the per-session snapshot maps. Values stay raw:
// MarshalIndent compacts and re-indents a RawMessage, so the merged
// bytes equal a single node's map of the same snapshots.
func mergeSnapshots(_ url.Values, bodies [][]byte) (any, error) {
	parts, err := decodeEach[map[string]json.RawMessage](bodies)
	out := make(map[string]json.RawMessage)
	for _, p := range parts {
		for name, snap := range p {
			out[name] = snap
		}
	}
	return out, err
}

// mergeMetrics sums the shards' registries with this process's own:
// counters and gauges add, timer tails take the worst (obs.MergeSnapshots).
func mergeMetrics(_ url.Values, bodies [][]byte) (any, error) {
	snaps, err := decodeEach[obs.Snapshot](bodies)
	return obs.MergeSnapshots(append(snaps, metrics.Snapshot())...), err
}

// mergeDrift rebuilds the drift view from every shard's rows through the
// sort and count a single node uses.
func mergeDrift(q url.Values, bodies [][]byte) (any, error) {
	threshold, err := fleet.ParseThreshold(q.Get("threshold"), fleet.DefaultDriftThreshold)
	if err != nil {
		return nil, err
	}
	parts, err := decodeEach[fleet.DriftView](bodies)
	rows := make([]fleet.DriftRow, 0, 16)
	for _, p := range parts {
		rows = append(rows, p.Rows...)
	}
	return fleet.BuildDriftView(rows, threshold), err
}
