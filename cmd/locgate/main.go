// Command locgate is the sharded front door for the locality service:
// a gateway that consistent-hash-routes sessions across N locserve
// shards and reassembles the cluster-wide view, so clients speak the
// exact locserve API to one address while the analysis scales
// horizontally (the "millions of users" deployment ROADMAP.md names:
// one engine per session, sessions spread over shards).
//
// The gateway serves the locserve /v1 API from the route table in
// internal/serve (serve.Routes): each route's class says whether it is
// proxied to the session's owner shard, fanned out to every shard and
// merged, or recomputed from the shards' merged fingerprints, and the
// merged documents are byte-identical to one locserve holding every
// session. Ingest forwards through a per-shard bounded queue, so a slow
// shard backpressures only its own sessions. The gateway adds the shard
// administration routes: GET /v1/shards lists the membership with the
// health of each shard (HEAD-probed every -probe interval; unhealthy
// shards are flagged, never evicted), and POST
// /v1/shards/add?name=N&url=U and /v1/shards/remove?name=N change it.
//
// Membership changes move only the sessions whose ring placement
// changed: the gateway drains them from their current owners (each
// serializes exact engine state into the shared -store directory) and
// the new owners rehydrate, so a rebalance causes zero analysis drift.
// Every shard must share one artifact store directory (each started
// with the same -store path, plus -handoff so an abrupt shutdown also
// persists state).
//
// Usage:
//
//	locgate -addr :8090 -shards a=http://h1:8080,b=http://h2:8080
//	locgate -addr :8090            # join shards later via /v1/shards/add
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shards := flag.String("shards", "", "initial shards as comma-separated name=url pairs (e.g. a=http://h1:8080,b=http://h2:8080)")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per shard on the hash ring")
	probe := flag.Duration("probe", 15*time.Second, "shard health probe interval (0 disables probing)")
	workers := cliflags.WorkersFlag(flag.CommandLine)
	flag.Parse()

	obs.EnableDefault() // the gateway adopts it: one registry per process
	gw := cluster.New(*vnodes, *workers, nil)
	if err := joinShards(gw, *shards); err != nil {
		fmt.Fprintln(os.Stderr, "locgate:", err)
		os.Exit(1)
	}
	if *probe > 0 {
		stop := gw.StartHealthProbes(*probe)
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	hs := &http.Server{Addr: *addr, Handler: gw.Handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- hs.ListenAndServe()
	}()

	fmt.Fprintf(os.Stderr, "locgate: listening on %s (%d shards, %d vnodes)\n",
		*addr, len(gw.Shards()), *vnodes)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "locgate:", err)
		os.Exit(1)
	case <-sig:
	}

	// The gateway holds no session state — shards own the engines and
	// persist through their own shutdown paths — so exit just stops
	// forwarding and closes the listener.
	gw.CloseShards()
	if err := hs.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "locgate: closing listener:", err)
	}
	<-errCh
	fmt.Fprintln(os.Stderr, "locgate: shut down")
}

// joinShards parses the -shards flag and joins each member.
func joinShards(gw *cluster.Gateway, spec string) error {
	if spec == "" {
		return nil
	}
	for _, pair := range strings.Split(spec, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || url == "" {
			return fmt.Errorf("bad -shards entry %q: want name=url", pair)
		}
		if _, err := gw.AddShard(name, url); err != nil {
			return fmt.Errorf("joining shard %s: %w", name, err)
		}
	}
	return nil
}
