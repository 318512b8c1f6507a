package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Shard health probing: the gateway periodically HEADs each shard's
// /v1/sessions (a fast path that builds no listing) and records the
// outcome. Health is advisory only — an unhealthy shard stays in the
// ring and keeps owning its sessions, because evicting it automatically
// would drop live engine state over what might be a transient network
// blip; the operator sees the flag in /v1/shards and decides. Probe
// state lives beside the membership (its own lock), so probing a stuck
// shard never blocks routing or a rebalance.

// shardHealth is one shard's latest probe outcome.
type shardHealth struct {
	healthy   bool
	lastError string
	lastProbe time.Time
}

// ProbeShards probes every current shard once, stamping results with
// now, and returns the number of unhealthy shards. The shard list is
// snapshotted under the routing lock, but the probes themselves run
// without it.
func (g *Gateway) ProbeShards(now time.Time) int {
	g.mu.RLock()
	shards := g.shardListLocked()
	g.mu.RUnlock()

	unhealthy := 0
	results := make(map[string]shardHealth, len(shards))
	for _, sh := range shards {
		h := shardHealth{healthy: true, lastProbe: now}
		resp := sh.do(http.MethodHead, "/v1/sessions", nil)
		switch {
		case resp.err != nil:
			h.healthy, h.lastError = false, resp.err.Error()
		case resp.status != http.StatusOK:
			h.healthy, h.lastError = false, fmt.Sprintf("status %d", resp.status)
		}
		if !h.healthy {
			unhealthy++
			g.mProbeFailures.Inc()
		}
		results[sh.name] = h
	}

	// The results replace the old map whole, so entries for shards since
	// removed from membership do not linger.
	g.healthMu.Lock()
	g.health = results
	g.healthMu.Unlock()
	return unhealthy
}

// StartHealthProbes runs ProbeShards every interval on a background
// goroutine until the returned stop function is called. Stop blocks
// until the prober exits; an in-flight probe cycle finishes first.
func (g *Gateway) StartHealthProbes(interval time.Duration) (stop func()) {
	ticker := time.NewTicker(interval)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				//lint:ignore determinism probe timestamps are operational metadata, not analysis output
				g.ProbeShards(time.Now())
			}
		}
	}()
	return func() {
		ticker.Stop()
		close(done)
		wg.Wait()
	}
}

// healthInfo decorates one shard listing row with its probe state. A
// shard never probed reads healthy with no probe timestamp.
func (g *Gateway) healthInfo(info *ShardInfo) {
	g.healthMu.Lock()
	h, ok := g.health[info.Name]
	g.healthMu.Unlock()
	if !ok {
		info.Healthy = true
		return
	}
	info.Healthy = h.healthy
	info.LastError = h.lastError
	info.LastProbe = h.lastProbe.UTC().Format(time.RFC3339Nano)
}
