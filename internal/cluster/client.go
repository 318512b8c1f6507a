package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// response is one proxied HTTP exchange, reduced to what the gateway
// relays: the status code and body bytes.
type response struct {
	status int
	body   []byte
	err    error
}

// shard is the gateway's HTTP client for one locserve shard.
type shard struct {
	name string
	base string // base URL, no trailing slash
	hc   *http.Client
}

func newShard(name, baseURL string, hc *http.Client) *shard {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &shard{name: name, base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// do performs one request against the shard and reads its answer.
//
//lint:coldpath one request per forwarded upload or control-plane call, never per record; error wrapping runs only on failure
func (sh *shard) do(method, pathQuery string, body []byte) response {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, sh.base+pathQuery, rd)
	if err != nil {
		return response{err: fmt.Errorf("shard %s: %w", sh.name, err)}
	}
	resp, err := sh.hc.Do(req)
	if err != nil {
		return response{err: fmt.Errorf("shard %s: %w", sh.name, err)}
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return response{err: fmt.Errorf("shard %s: reading response: %w", sh.name, err)}
	}
	return response{status: resp.StatusCode, body: b}
}
