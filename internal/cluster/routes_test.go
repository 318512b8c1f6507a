package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/online"
	"repro/internal/serve"
)

// TestGatewayRouteParity drives every serve.Routes entry through the
// gateway and a single-node oracle with the same requests: a method the
// route does not admit, a missing required session, and an unknown
// session. Statuses must agree (and error bodies match byte for byte);
// shard-only routes must not be served by the gateway at all. The
// gateway mux must serve no /v1 path outside the table except its own
// /v1/shards administration.
func TestGatewayRouteParity(t *testing.T) {
	c := newTestCluster(t, "s0", "s1")
	o := newStoreOracle(t)

	for i, rt := range serve.Routes {
		method := rt.Methods[0]
		unknown := fmt.Sprintf("?session=unknown%d", i)
		cases := []struct {
			what, method, query string
		}{
			{"wrong method", http.MethodPut, unknown},
			{"unknown session", method, unknown},
		}
		if rt.Session == serve.NeedSession {
			cases = append(cases, struct{ what, method, query string }{"missing session", method, ""})
		}
		for _, tc := range cases {
			gotCode, gotBody := do(t, tc.method, c.gwTS.URL+rt.Path+tc.query, nil)
			if rt.Class == serve.ShardOnly {
				if gotCode != http.StatusNotFound {
					t.Errorf("%s %s (%s): gateway status %d, want 404 for a shard-only route", tc.method, rt.Path, tc.what, gotCode)
				}
				continue
			}
			wantCode, wantBody := do(t, tc.method, o.ts.URL+rt.Path+tc.query, nil)
			if gotCode != wantCode {
				t.Errorf("%s %s (%s): gateway status %d, single node %d: %s", tc.method, rt.Path, tc.what, gotCode, wantCode, gotBody)
			} else if gotCode != http.StatusOK && !bytes.Equal(gotBody, wantBody) {
				t.Errorf("%s %s (%s): gateway error %q, single node %q", tc.method, rt.Path, tc.what, gotBody, wantBody)
			}
		}
	}

	table := map[string]serve.Class{}
	for _, rt := range serve.Routes {
		table[rt.Path] = rt.Class
	}
	served := c.gw.handlers()
	for path := range served {
		if _, ok := table[path]; !ok && strings.HasPrefix(path, "/v1/") && !strings.HasPrefix(path, "/v1/shards") {
			t.Errorf("gateway serves %s, which is neither in serve.Routes nor shard administration", path)
		}
	}
	for path, class := range table {
		if _, ok := served[path]; ok != (class != serve.ShardOnly) {
			t.Errorf("gateway serving %s = %v, want %v", path, ok, class != serve.ShardOnly)
		}
	}
}

// TestGatewayRelaysShard4xx: when every shard rejects a fan-out request
// the way a single node would, the gateway answers with that rejection,
// not a 502. Shards without a store reject /v1/fleet/drift with 404.
func TestGatewayRelaysShard4xx(t *testing.T) {
	gw := New(0, 2, nil)
	gwTS := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		gwTS.Close()
		gw.CloseShards()
	})
	for _, name := range []string{"s0", "s1"} {
		ts := httptest.NewServer(serve.New(online.Options{}, 1, nil).Handler())
		t.Cleanup(ts.Close)
		if _, err := gw.AddShard(name, ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	o := newOracle(t)

	for _, pathQuery := range []string{"/v1/fleet/drift", "/v1/fleet/drift?threshold=2", "/v1/history"} {
		gotCode, gotBody := get(t, gwTS.URL+pathQuery)
		wantCode, wantBody := get(t, o.ts.URL+pathQuery)
		if gotCode != wantCode || !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: gateway %d %q, single node %d %q", pathQuery, gotCode, gotBody, wantCode, wantBody)
		}
	}
}

// TestGatewaySessionsHead: HEAD /v1/sessions is the liveness probe; the
// gateway admits it as a shard does, with no body.
func TestGatewaySessionsHead(t *testing.T) {
	c := newTestCluster(t, "s0")
	for _, base := range []string{c.gwTS.URL, c.shards["s0"].ts.URL} {
		code, body := do(t, http.MethodHead, base+"/v1/sessions", nil)
		if code != http.StatusOK || len(body) != 0 {
			t.Errorf("HEAD %s/v1/sessions: status %d, body %q; want 200 and no body", base, code, body)
		}
	}
}

// TestGatewayHistory closes sessions owned by different shards through
// the gateway, listing and fetching their history through it after each
// close: the bytes must equal a single node's with its own store, so a
// history artifact named in a gateway close response resolves at the
// gateway, whichever shard closed it.
func TestGatewayHistory(t *testing.T) {
	c := newTestCluster(t, "s0", "s1", "s2")
	o := newStoreOracle(t)

	var sessions []string
	owners := map[string]bool{}
	for i := 0; i < 6; i++ {
		session := fmt.Sprintf("h%d", i)
		ingestBoth(t, c, o, session, genTrace(t, 2_000, int64(i+1)).Events())
		sessions = append(sessions, session)
		owners[c.gw.ring.Owner(session)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("history sessions all landed on one shard (%v); widen the session set", owners)
	}

	for _, session := range sessions {
		code, body := post(t, c.gwTS.URL+"/v1/close?session="+session, nil)
		mustOK(t, "gateway close "+session, code, body)
		var res serve.CloseResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		code, body = post(t, o.ts.URL+"/v1/close?session="+session, nil)
		mustOK(t, "oracle close "+session, code, body)
		if res.Artifact == "" {
			t.Fatalf("close of %s named no history artifact", session)
		}
		checkFleetEqual(t, c, o, "/v1/history")
		checkFleetEqual(t, c, o, "/v1/history?name="+res.Artifact)
	}
}

// TestGatewayRejectsNullFingerprint: a shard whose fingerprint listing
// holds a null entry is a bad upstream answer. Every fleet view the
// gateway computes from the listing answers 502 instead of panicking.
// The gateway gathers listings from /v1/fleet/gather in the varint
// form, which has no null; a JSON listing there is malformed.
func TestGatewayRejectsNullFingerprint(t *testing.T) {
	gw := New(0, 2, nil)
	gwTS := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		gwTS.Close()
		gw.CloseShards()
	})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/fleet/gather" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `{"sessions":2,"fingerprints":[null,{"session":"b","sessions":1,"streams":[]}]}`)
	}))
	t.Cleanup(shard.Close)
	if _, err := gw.AddShard("bad", shard.URL); err != nil {
		t.Fatal(err)
	}
	for _, rt := range serve.Routes {
		if rt.Class != serve.FleetView {
			continue
		}
		if code, body := get(t, gwTS.URL+rt.Path); code != http.StatusBadGateway {
			t.Errorf("%s: status %d (%s), want %d", rt.Path, code, body, http.StatusBadGateway)
		}
	}
}
