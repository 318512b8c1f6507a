package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
)

// Forwarding-queue parameters, mirroring locserve's batcher/service
// split one level up: each shard gets a bounded queue of pending
// uploads drained by a single sender goroutine, so a slow or stalled
// shard backpressures only the handlers routed to it — every other
// shard's traffic keeps flowing.
const forwardQueueDepth = 32

// response is one proxied HTTP exchange, reduced to what the gateway
// relays: the status code and body bytes.
type response struct {
	status int
	body   []byte
	err    error
}

// forwardJob is one queued ingest upload (or, when flush is non-nil, a
// barrier the sender acknowledges by closing the channel).
type forwardJob struct {
	session string
	body    []byte
	done    chan response
	flush   chan struct{}
}

// shard is the gateway's client for one locserve shard: control-plane
// requests go out directly, ingest uploads flow through the bounded
// queue. The single sender goroutine preserves arrival order per shard
// (and therefore per session, since a session maps to one shard).
type shard struct {
	name string
	base string // base URL, no trailing slash
	hc   *http.Client

	queue  chan *forwardJob
	loopWG sync.WaitGroup
}

func newShard(name, baseURL string, hc *http.Client) *shard {
	if hc == nil {
		hc = http.DefaultClient
	}
	sh := &shard{
		name:  name,
		base:  strings.TrimRight(baseURL, "/"),
		hc:    hc,
		queue: make(chan *forwardJob, forwardQueueDepth),
	}
	sh.loopWG.Add(1)
	go func() {
		defer sh.loopWG.Done()
		sh.sendLoop()
	}()
	return sh
}

// sendLoop is the shard's sender goroutine: it drains the queue in
// order, POSTing each upload onward and delivering the shard's response
// to the waiting handler.
//
//lint:hotpath forwards the live upload stream; one iteration per queued POST
func (sh *shard) sendLoop() {
	for job := range sh.queue {
		if job.flush != nil {
			close(job.flush)
			continue
		}
		job.done <- sh.do(http.MethodPost,
			"/v1/ingest?session="+url.QueryEscape(job.session), job.body)
	}
}

// forward enqueues one ingest upload and waits for the shard's
// response. The bounded queue blocks here when the shard is saturated —
// per-shard backpressure, felt only by this shard's clients.
//
//lint:coldpath one job allocation per uploaded chunk stream, never per record
func (sh *shard) forward(session string, body []byte) response {
	job := &forwardJob{session: session, body: body, done: make(chan response, 1)}
	sh.queue <- job
	return <-job.done
}

// waitFlush enqueues a barrier and waits for the sender to reach it:
// every upload enqueued before the call has been delivered (and
// answered) when it returns.
func (sh *shard) waitFlush() {
	flush := make(chan struct{})
	sh.queue <- &forwardJob{flush: flush}
	<-flush
}

// close stops the sender goroutine. Callers must ensure no concurrent
// forward/waitFlush (the gateway removes the shard from routing first,
// under its membership lock).
func (sh *shard) close() {
	close(sh.queue)
	sh.loopWG.Wait()
}

// do performs one direct (unqueued) request against the shard:
// control-plane calls — snapshots, listings, drains, closes — that must
// not sit behind queued uploads.
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
