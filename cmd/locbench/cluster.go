package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/online"
	"repro/internal/serve"
	"repro/internal/store"
)

// system is a gateway over in-process shards, each behind its own
// loopback httptest server, as the cluster tests run them. The shards
// share one store directory when the workload needs handoff.
type system struct {
	tr     *tracer
	client *http.Client // the workload's clients: at most two connections
	gw     *cluster.Gateway
	gwTS   *httptest.Server
	shards map[string]*httptest.Server
}

// newSystem starts every named shard, each over the store in storeDir
// unless it is "", and joins the first joined of them to a fresh
// gateway.
func newSystem(e *env, names []string, joined int, storeDir string) (*system, error) {
	s := &system{
		tr:     e.tr,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}, Timeout: 2 * time.Minute},
		shards: map[string]*httptest.Server{},
	}
	var gwTransport http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if e.tr != nil {
		gwTransport = e.tr.transport(gwTransport)
	}
	s.gw = cluster.New(0, 2, &http.Client{Transport: gwTransport, Timeout: 2 * time.Minute})
	s.gwTS = httptest.NewServer(e.tr.handler(layerGateway, s.gw.Handler()))
	opts := online.Options{Obs: e.reg}
	for _, name := range names {
		var st *store.Store
		if storeDir != "" {
			var err error
			if st, err = store.Open(storeDir); err != nil {
				s.close()
				return nil, err
			}
		}
		s.shards[name] = httptest.NewServer(e.tr.handler(layerShard, serve.New(opts, 2, st).Handler()))
	}
	for _, name := range names[:joined] {
		if _, err := s.join(name); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close stops the gateway's senders and every server.
func (s *system) close() {
	s.gwTS.Close()
	s.gw.CloseShards()
	for _, ts := range s.shards {
		ts.Close()
	}
	s.client.CloseIdleConnections()
}

// join adds a shard to the gateway and returns the sessions that moved.
func (s *system) join(name string) ([]string, error) {
	return parseMoved(s.do(http.MethodPost, "/v1/shards/add?name="+name+"&url="+url.QueryEscape(s.shards[name].URL), nil))
}

// leave removes a shard from the gateway and returns the sessions that
// moved.
func (s *system) leave(name string) ([]string, error) {
	return parseMoved(s.do(http.MethodPost, "/v1/shards/remove?name="+name, nil))
}

// do sends one request to the gateway and returns the body of a 200
// response; any other status is an error.
func (s *system) do(method, pathQuery string, body []byte) ([]byte, error) {
	start := time.Now()
	req, err := http.NewRequest(method, s.gwTS.URL+pathQuery, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	s.tr.add(layerClient, req.URL, start, time.Now(), int64(len(body)+len(b)))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, pathQuery, resp.StatusCode, b)
	}
	return b, nil
}

func (s *system) ingest(session string, chunk []byte) error {
	_, err := s.do(http.MethodPost, "/v1/ingest?session="+url.QueryEscape(session), chunk)
	return err
}

func (s *system) snapshot(session string) ([]byte, error) {
	return s.do(http.MethodGet, "/v1/snapshot?session="+url.QueryEscape(session), nil)
}

// closeSession retires a session through the gateway, so the gateway
// forgets it and no later rebalance resurrects it.
func (s *system) closeSession(session string) (serve.CloseResult, error) {
	var res serve.CloseResult
	b, err := s.do(http.MethodPost, "/v1/close?session="+url.QueryEscape(session), nil)
	if err == nil {
		err = json.Unmarshal(b, &res)
	}
	return res, err
}

// rows lists the sessions the cluster holds, keyed by name.
func (s *system) rows() (map[string]sessionRow, error) {
	b, err := s.do(http.MethodGet, "/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	var list struct {
		Sessions []sessionRow `json:"sessions"`
	}
	if err := json.Unmarshal(b, &list); err != nil {
		return nil, err
	}
	out := make(map[string]sessionRow, len(list.Sessions))
	for _, r := range list.Sessions {
		out[r.Session] = r
	}
	return out, nil
}

// checkRows compares the cluster's listing of this round's sessions
// with the reference engines fed the same bytes.
func (s *system) checkRows(ss []*session, refs []*online.Engine, round int) error {
	got, err := s.rows()
	if err != nil {
		return err
	}
	for i, sess := range ss {
		want := rowOf(sess.name(round), refs[i])
		if got[want.Session] != want {
			return fmt.Errorf("session row %+v, want %+v", got[want.Session], want)
		}
	}
	return nil
}

// closeAll retires this round's sessions from two goroutines; the
// release is not timed.
func (s *system) closeAll(ss []*session, round int) ([]serve.CloseResult, error) {
	out := make([]serve.CloseResult, len(ss))
	errs := make([]error, len(ss))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ss); i += 2 {
				out[i], errs[i] = s.closeSession(ss[i].name(round))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shardSkew is max ÷ mean records per shard when round 1's sessions
// are placed on a ring of the named shards: the load balance the
// gateway's placement gives this workload.
func shardSkew(ss []*session, shards []string) float64 {
	ring := cluster.NewRing(0)
	for _, sh := range shards {
		ring.Add(sh)
	}
	load := map[string]int{}
	total := 0
	for _, s := range ss {
		load[ring.Owner(s.name(1))] += s.events
		total += s.events
	}
	maxLoad := 0
	for _, n := range load {
		maxLoad = max(maxLoad, n)
	}
	return float64(maxLoad) / (float64(total) / float64(len(shards)))
}

// Span layers, outermost first: the benchmark's client, the gateway's
// handler, the gateway's request to a shard, and the shard's handler.
const (
	layerClient  = "client"
	layerGateway = "gateway"
	layerHop     = "hop"
	layerShard   = "shard"
)

var layerOrder = []string{layerClient, layerGateway, layerHop, layerShard}

// span is one timed exchange at one layer. Parent is the index of the
// span one layer out that encloses it, for the same session, or -1.
type span struct {
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Session string `json:"session,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes"`
}

func (sp span) dur() int64 { return sp.EndNS - sp.StartNS }

// tracer keeps spans in memory while it is on. It is recorded only from
// the benchmark's own wrappers: middleware around each Handler, a
// RoundTripper on the gateway's client, and the client calls above. A
// nil tracer records nothing and wraps nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	on    bool
	spans []span
}

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) add(layer string, u *url.URL, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.on {
		t.spans = append(t.spans, span{
			Parent: -1, Layer: layer, Op: u.Path, Session: u.Query().Get("session"),
			StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Bytes: n,
		})
	}
}

func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(layer, r.URL, start, time.Now(), r.ContentLength)
	})
}

func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			t.add(layerHop, req.URL, start, time.Now(), req.ContentLength)
			return nil, err
		}
		// The exchange ends when the gateway has read and closed the body.
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			t.add(layerHop, req.URL, start, time.Now(), req.ContentLength)
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// link sets each span's parent: the span one layer out, for the same
// session (or for no session, as fan-outs and rebalances have), whose
// interval encloses it.
func link(spans []span) {
	byLayer := map[string][]int{}
	for i, sp := range spans {
		byLayer[sp.Layer] = append(byLayer[sp.Layer], i)
	}
	for li := 1; li < len(layerOrder); li++ {
		outer := map[string][]int{}
		for _, i := range byLayer[layerOrder[li-1]] {
			outer[spans[i].Session] = append(outer[spans[i].Session], i)
		}
		for _, idx := range outer {
			sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].StartNS < spans[idx[b]].StartNS })
		}
		for _, i := range byLayer[layerOrder[li]] {
			spans[i].Parent = enclosing(spans, outer[spans[i].Session], spans[i])
			if spans[i].Parent < 0 && spans[i].Session != "" {
				spans[i].Parent = enclosing(spans, outer[""], spans[i])
			}
		}
	}
}

// enclosing returns the latest-starting candidate (sorted by start)
// whose interval contains sp, or -1.
func enclosing(spans []span, cands []int, sp span) int {
	k := sort.Search(len(cands), func(k int) bool { return spans[cands[k]].StartNS > sp.StartNS })
	for k--; k >= 0; k-- {
		if p := spans[cands[k]]; p.EndNS >= sp.EndNS {
			return cands[k]
		}
	}
	return -1
}

// layerTime is the aggregate of one layer's spans for one endpoint.
type layerTime struct {
	count       int
	total, self int64 // ns
	bytes       int64
}

// selfTimes aggregates spans by layer and endpoint. A span's self time
// is its duration minus the union of its children's intervals, so
// overlapping fan-out children are not counted twice.
func selfTimes(spans []span) map[[2]string]*layerTime {
	children := map[int][]span{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[[2]string]*layerTime{}
	for i, sp := range spans {
		key := [2]string{sp.Layer, sp.Op}
		lt := out[key]
		if lt == nil {
			lt = &layerTime{}
			out[key] = lt
		}
		lt.count++
		lt.total += sp.dur()
		lt.self += sp.dur() - covered(children[i])
		lt.bytes += sp.Bytes
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(a, b int) bool { return ss[a].StartNS < ss[b].StartNS })
	var total, end int64
	for _, sp := range ss {
		start := max(sp.StartNS, end)
		if sp.EndNS > start {
			total += sp.EndNS - start
			end = sp.EndNS
		}
	}
	return total
}

// spanMetrics derives the cluster layers' numbers from the traced
// pass's spans: per-request self time of the client's framing, the
// gateway and each hop; the shards' handler times; and the share of
// shard ingest time the in-process layers do not explain.
func spanMetrics(spans []span, c layerCosts, rounds int, out map[string]float64) {
	if len(spans) == 0 {
		return
	}
	agg := selfTimes(spans)
	sum := func(layer, prefix string) (n int, total, self, bytes int64) {
		for k, a := range agg {
			if k[0] == layer && strings.HasPrefix(k[1], prefix) {
				n, total, self, bytes = n+a.count, total+a.total, self+a.self, bytes+a.bytes
			}
		}
		return
	}
	mean := func(name, layer, prefix string, selfOnly bool) {
		n, total, self, _ := sum(layer, prefix)
		if n == 0 {
			return
		}
		if selfOnly {
			total = self
		}
		out[name] = float64(total) / 1e6 / float64(n)
	}
	mean("http.client_ms", layerClient, "/", true)
	mean("http.hop_ms", layerHop, "/", true)
	mean("cluster.ingest_self_ms", layerGateway, "/v1/ingest", true)
	mean("cluster.proxy_self_ms", layerGateway, "/v1/snapshot", true)
	mean("cluster.fleet_self_ms", layerGateway, "/v1/fleet/", true)
	mean("serve.ingest_ms", layerShard, "/v1/ingest", false)
	mean("serve.snapshot_ms", layerShard, "/v1/snapshot", false)
	mean("serve.fleet_ms", layerShard, "/v1/fleet/", false)
	mean("serve.drain_ms", layerShard, "/v1/drain", false)
	_, _, _, wire := sum(layerClient, "/")
	out["http.wire_mb_per_round"] = float64(wire) / 1e6 / float64(rounds)

	if n, total, _, body := sum(layerShard, "/v1/ingest"); n > 0 && c.bytes > 0 {
		records := float64(body) * float64(c.records) / float64(c.bytes)
		layered := float64((c.decode + c.stats + c.abstract + c.appendT).Nanoseconds()) / float64(c.records)
		out["serve.ingest_unexplained_pct"] = 100 * (float64(total) - records*layered) / float64(total)
	}
}
