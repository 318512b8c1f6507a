package cluster

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// Gateway routes the locserve API across shards: ingest and per-session
// reads follow the ring to the owning shard; listings, all-session
// snapshots, and metrics fan out to every shard and merge. Membership
// changes drain moved sessions through the shared store and replay
// placement, so the cluster answers before and after a rebalance as if
// it were one uninterrupted locserve.
type Gateway struct {
	workers int
	hc      *http.Client

	// reg is the gateway's registry: the process default, else its own.
	// The merged /v1/metrics view adds it to the shards' registries.
	reg                                            *obs.Registry
	mForwards, mRebalances, mMoved, mProbeFailures *obs.Counter

	// mu is the membership lock: request routing holds it shared for the
	// whole proxied exchange, membership changes hold it exclusively —
	// so a rebalance begins only once in-flight forwards have finished,
	// and no forward can slip between a drain and the ring switch.
	mu     sync.RWMutex
	ring   *Ring
	shards map[string]*shard

	// known tracks every session routed through this gateway (under its
	// own lock: routing holds mu only shared). It is the work list a
	// rebalance diffs placement over — including sessions resident on a
	// shard that died, which cannot be listed by asking the shard.
	knownMu sync.Mutex
	known   map[string]bool

	// health holds the latest probe outcome per shard (see health.go),
	// under its own lock so a stuck probe never blocks routing.
	healthMu sync.Mutex
	health   map[string]shardHealth
}

// New returns a gateway with no shards. vnodes <= 0 selects
// DefaultVirtualNodes; workers bounds fan-out concurrency (<= 0: one
// per CPU); hc is the HTTP client for shard traffic (nil: the default
// client).
func New(vnodes, workers int, hc *http.Client) *Gateway {
	reg := obs.Default()
	if reg == nil {
		reg = obs.New()
	}
	g := &Gateway{
		workers:        parallel.Workers(workers),
		hc:             hc,
		reg:            reg,
		mForwards:      reg.Counter("locgate.forwards"),
		mRebalances:    reg.Counter("locgate.rebalances"),
		mMoved:         reg.Counter("locgate.moved"),
		mProbeFailures: reg.Counter("locgate.probe_failures"),
		ring:           NewRing(vnodes),
		shards:         make(map[string]*shard),
		known:          make(map[string]bool),
	}
	reg.GaugeFunc("locgate.shards", func() int64 {
		g.mu.RLock()
		defer g.mu.RUnlock()
		return int64(len(g.shards))
	})
	reg.GaugeFunc("locgate.sessions", func() int64 {
		g.knownMu.Lock()
		defer g.knownMu.Unlock()
		return int64(len(g.known))
	})
	return g
}

// ShardInfo is one row of the /v1/shards listing. Healthy reflects the
// latest health probe (true for a shard never probed); LastError and
// LastProbe are set once a probe has run. Health is advisory — an
// unhealthy shard is never auto-evicted.
type ShardInfo struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	LastError string `json:"lastError,omitempty"`
	LastProbe string `json:"lastProbe,omitempty"`
}

// Shards lists the current members in sorted name order.
func (g *Gateway) Shards() []ShardInfo {
	g.mu.RLock()
	out := make([]ShardInfo, 0, len(g.shards))
	for _, sh := range g.shards {
		out = append(out, ShardInfo{Name: sh.name, URL: sh.base})
	}
	g.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	for i := range out {
		g.healthInfo(&out[i])
	}
	return out
}

// knownSessions snapshots the routed-session set in sorted order.
func (g *Gateway) knownSessions() []string {
	g.knownMu.Lock()
	names := make([]string, 0, len(g.known))
	for n := range g.known {
		names = append(names, n)
	}
	g.knownMu.Unlock()
	sort.Strings(names)
	return names
}

// AddShard joins a shard and rebalances: sessions whose placement moves
// to the new member are drained from their current owners (through the
// shared store) and adopted by the new one. On a drain failure the ring
// is left unchanged — drained sessions rehydrate in place on their old
// owner's next access, so an aborted rebalance loses nothing.
func (g *Gateway) AddShard(name, baseURL string) ([]string, error) {
	if name == "" || baseURL == "" {
		return nil, fmt.Errorf("shard name and url required")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.shards[name]; ok {
		return nil, fmt.Errorf("shard %s already present", name)
	}
	next := g.ring.Clone()
	next.Add(name)
	moved, err := g.drainMovedLocked(next)
	if err != nil {
		return nil, err
	}
	sh := newShard(name, baseURL, g.hc)
	g.shards[name] = sh
	g.ring = next
	g.mRebalances.Inc()
	g.replayPlacementLocked(moved)
	return moved, nil
}

// RemoveShard retires a shard and rebalances its sessions onto the
// remaining members. An unreachable shard (crashed, or already shut
// down) is removed anyway: a -handoff shutdown has already persisted
// its sessions' state, and the survivors rehydrate from the store.
func (g *Gateway) RemoveShard(name string) ([]string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.shards[name]; !ok {
		return nil, fmt.Errorf("unknown shard %s", name)
	}
	next := g.ring.Clone()
	next.Remove(name)
	moved, err := g.drainMovedLocked(next)
	if err != nil {
		return nil, err
	}
	delete(g.shards, name)
	g.ring = next
	g.healthMu.Lock()
	delete(g.health, name)
	g.healthMu.Unlock()
	g.mRebalances.Inc()
	g.replayPlacementLocked(moved)
	return moved, nil
}

// drainMovedLocked diffs session placement between the live ring and
// next, drains every moved session from its current owner, and returns
// the moved session names (sorted: knownSessions ordering). No upload
// routed through this gateway is in flight during the drain: each holds
// g.mu shared until its shard answers. An unreachable owner is
// tolerated — its process persisted state at shutdown or lost it with
// the host; either way draining is not possible and not useful. Any
// other drain failure aborts. Callers hold g.mu exclusively.
func (g *Gateway) drainMovedLocked(next *Ring) ([]string, error) {
	byOwner := make(map[string][]string)
	moved := []string{} // a JSON array, not null, when nothing moves
	for _, session := range g.knownSessions() {
		old := g.ring.Owner(session)
		if old == "" || old == next.Owner(session) {
			continue
		}
		byOwner[old] = append(byOwner[old], session)
		moved = append(moved, session)
	}
	owners := make([]string, 0, len(byOwner))
	for owner := range byOwner {
		owners = append(owners, owner)
	}
	sort.Strings(owners)
	for _, owner := range owners {
		sessions := byOwner[owner]
		sh := g.shards[owner]
		if sh == nil {
			continue // owner already departed; sessions rehydrate from the store
		}
		resp := sh.do(http.MethodPost, "/v1/drain?"+url.Values{"session": sessions}.Encode(), nil)
		if resp.err != nil {
			fmt.Fprintf(os.Stderr, "locgate: drain %s unreachable (%v); relying on persisted state\n", owner, resp.err)
			continue
		}
		if resp.status != http.StatusOK {
			return nil, fmt.Errorf("draining shard %s: status %d: %s", owner, resp.status, resp.body)
		}
	}
	g.mMoved.Add(uint64(len(moved)))
	return moved, nil
}

// replayPlacementLocked pokes each moved session's new owner with an
// empty ingest, which rehydrates it from the store immediately — so
// listings and all-session snapshots include moved sessions without
// waiting for their next upload. Failures are logged, not fatal: the
// owner rehydrates lazily on the session's next access regardless.
// Callers hold g.mu exclusively.
func (g *Gateway) replayPlacementLocked(moved []string) {
	for _, session := range moved {
		sh := g.shards[g.ring.Owner(session)]
		if sh == nil {
			continue
		}
		resp := sh.do(http.MethodPost, "/v1/ingest?session="+url.QueryEscape(session), nil)
		if resp.err != nil || resp.status != http.StatusOK {
			fmt.Fprintf(os.Stderr, "locgate: adopting %s on %s: status %d err %v\n",
				session, sh.name, resp.status, resp.err)
		}
	}
}

// CloseShards drops every member without draining it (used by tests
// and at gateway shutdown; the shards themselves keep running).
func (g *Gateway) CloseShards() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.shards = make(map[string]*shard)
	g.ring = NewRing(g.ring.vnodes)
}

// Handler builds the gateway mux: the serve.Routes table, routed or
// merged across shards, plus shard administration and the runtime's
// expvar.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, h := range g.handlers() {
		mux.Handle(path, h)
	}
	return mux
}

// handlers maps every path the gateway serves to its handler.
func (g *Gateway) handlers() map[string]http.Handler {
	hs := serve.Handlers(g.route)
	admin := func(path, method string, h serve.Handler) {
		rt := serve.Route{Path: path, Methods: []string{method}}
		hs[path] = rt.Wrap(h)
	}
	admin("/v1/shards", http.MethodGet, g.handleShards)
	admin("/v1/shards/add", http.MethodPost, g.handleShardAdd)
	admin("/v1/shards/remove", http.MethodPost, g.handleShardRemove)
	hs["/debug/vars"] = expvar.Handler()
	return hs
}

// route derives the gateway's handler for one table route from its
// class. Only ingest and close differ from their class: both keep the
// gateway's session list current.
func (g *Gateway) route(rt *serve.Route) serve.Handler {
	switch {
	case rt.Path == "/v1/ingest":
		return g.handleIngest
	case rt.Path == "/v1/close":
		return g.handleClose
	case rt.Class == serve.ShardOnly:
		return nil
	}
	return func(w http.ResponseWriter, r *http.Request, session string) {
		g.mu.RLock()
		defer g.mu.RUnlock()
		if session != "" || rt.Class == serve.Owner || rt.Class == serve.AnyShard {
			// Every shard gives an AnyShard route the same answer; the
			// owner of the empty name is as good a shard as any.
			sh := g.ownerLocked(session)
			if sh == nil {
				serve.HTTPError(w, http.StatusServiceUnavailable, "no shards joined")
				return
			}
			relay(w, sh.do(r.Method, rt.Path+"?"+r.URL.RawQuery, nil))
			return
		}
		pathQuery, merge, err := rt.Gather(r.URL, g.workers)
		if err != nil {
			serve.HTTPError(w, http.StatusBadRequest, err.Error())
			return
		}
		bodies, ok := g.fanOutLocked(w, pathQuery)
		if !ok {
			return
		}
		doc, err := merge(bodies)
		if err != nil {
			serve.HTTPError(w, http.StatusBadGateway, err.Error())
			return
		}
		if snap, ok := doc.(obs.Snapshot); ok {
			// The shards' merged registries gain the gateway's own.
			doc = obs.MergeSnapshots(snap, g.reg.Snapshot())
		}
		serve.WriteJSON(w, doc)
	}
}

// owner resolves the shard owning a session. Callers hold g.mu (shared
// suffices).
func (g *Gateway) ownerLocked(session string) *shard {
	return g.shards[g.ring.Owner(session)]
}

// relay writes a proxied shard response through to the client.
func relay(w http.ResponseWriter, resp response) {
	if resp.err != nil {
		serve.HTTPError(w, http.StatusBadGateway, resp.err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// handleIngest forwards an upload to the owning shard: POST
// /v1/ingest?session=NAME, wire-compatible with locserve's endpoint —
// clients point at the gateway and change nothing. Each upload is its
// own request to the shard, so a slow answer for one session never
// delays another's.
//
//lint:hotpath gateway upload path; runs per POST, body copy plus one shard round trip
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request, session string) {
	// Buffer the body before taking the routing lock: a slow uploader
	// must not extend the lock hold (and a rebalance must not wait on
	// someone's network).
	body, err := io.ReadAll(r.Body)
	if err != nil {
		serve.HTTPError(w, http.StatusBadRequest, "reading upload: "+err.Error())
		return
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	sh := g.ownerLocked(session)
	if sh == nil {
		serve.HTTPError(w, http.StatusServiceUnavailable, "no shards joined")
		return
	}
	g.knownMu.Lock()
	g.known[session] = true
	g.knownMu.Unlock()
	g.mForwards.Inc()
	relay(w, sh.do(http.MethodPost, "/v1/ingest?session="+url.QueryEscape(session), body))
}

// handleClose proxies a close to the owning shard. An upload racing the
// close resolves on the shard as on a single node: it lands before the
// close, gets 410, or opens a fresh session.
func (g *Gateway) handleClose(w http.ResponseWriter, r *http.Request, session string) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	sh := g.ownerLocked(session)
	if sh == nil {
		serve.HTTPError(w, http.StatusServiceUnavailable, "no shards joined")
		return
	}
	resp := sh.do(http.MethodPost, "/v1/close?"+r.URL.RawQuery, nil)
	if resp.err == nil && resp.status == http.StatusOK && r.URL.Query().Get("state") != "1" {
		// A plain close retires the session; a state close is a handoff —
		// the session stays routable and rehydrates on next access.
		g.knownMu.Lock()
		delete(g.known, session)
		g.knownMu.Unlock()
	}
	relay(w, resp)
}

// shardList snapshots the shard set for a fan-out. Callers hold g.mu
// (shared suffices).
func (g *Gateway) shardListLocked() []*shard {
	out := make([]*shard, 0, len(g.shards))
	for _, sh := range g.shards {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// fanOutLocked GETs pathQuery from every shard in parallel and returns
// the bodies in shard-name order. When a shard fails it answers for the
// gateway and ok is false: a 4xx is relayed as sent (the request itself
// is at fault, and a single node would have said the same); a transport
// error or any other status is a 502. Callers hold g.mu (shared
// suffices).
func (g *Gateway) fanOutLocked(w http.ResponseWriter, pathQuery string) (bodies [][]byte, ok bool) {
	shards := g.shardListLocked()
	resps, _ := parallel.Map(g.workers, len(shards), func(i int) (response, error) {
		return shards[i].do(http.MethodGet, pathQuery, nil), nil
	})
	var failed error
	for i, resp := range resps {
		switch {
		case resp.err == nil && resp.status >= 400 && resp.status < 500:
			relay(w, resp)
			return nil, false
		case resp.err != nil:
			failed = resp.err
		case resp.status != http.StatusOK && failed == nil:
			failed = fmt.Errorf("shard %s: status %d: %s", shards[i].name, resp.status, resp.body)
		}
		bodies = append(bodies, resp.body)
	}
	if failed != nil {
		serve.HTTPError(w, http.StatusBadGateway, failed.Error())
		return nil, false
	}
	return bodies, true
}

// handleShards lists the membership: GET /v1/shards.
func (g *Gateway) handleShards(w http.ResponseWriter, _ *http.Request, _ string) {
	serve.WriteJSON(w, struct {
		Shards []ShardInfo `json:"shards"`
	}{g.Shards()})
}

// rebalanceResult is the add/remove response body.
type rebalanceResult struct {
	Shards []ShardInfo `json:"shards"`
	Moved  []string    `json:"moved"`
}

// handleShardAdd joins a shard: POST /v1/shards/add?name=N&url=U.
func (g *Gateway) handleShardAdd(w http.ResponseWriter, r *http.Request, _ string) {
	moved, err := g.AddShard(r.URL.Query().Get("name"), r.URL.Query().Get("url"))
	g.writeRebalance(w, moved, err)
}

// handleShardRemove retires a shard: POST /v1/shards/remove?name=N.
func (g *Gateway) handleShardRemove(w http.ResponseWriter, r *http.Request, _ string) {
	moved, err := g.RemoveShard(r.URL.Query().Get("name"))
	g.writeRebalance(w, moved, err)
}

// writeRebalance answers a membership change.
func (g *Gateway) writeRebalance(w http.ResponseWriter, moved []string, err error) {
	if err != nil {
		serve.HTTPError(w, http.StatusConflict, err.Error())
		return
	}
	serve.WriteJSON(w, rebalanceResult{Shards: g.Shards(), Moved: moved})
}
