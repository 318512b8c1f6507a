package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/online"
	"repro/internal/store"
)

// shardNames are the shard servers a cluster workload starts; the
// first three join the gateway at set-up, s4 only during rebalances.
var shardNames = []string{"s1", "s2", "s3", "s4"}

// clusterBase is what the three cluster workloads share: the sessions,
// the reference engines fed the same bytes, and the running system.
type clusterBase struct {
	mix      mix
	sessions []*session
	refs     []*online.Engine
	fleetRef []byte // the expected top-streams document
	sys      *system
	storeDir string
}

func (c *clusterBase) inputs() []*session { return c.sessions }

// Home-shard rules, by corpus position. byUploader keeps the two
// uploaders on disjoint shards (the first uploader's sessions alternate
// between s1 and s2, the second's all go to s3), so they never queue
// behind each other on a shard's single forwarding sender; spread deals
// the sessions out over the three shards.
func byUploader(i int) int {
	if i%2 == 1 {
		return 2
	}
	return (i / 2) % 2
}

func spread(i int) int { return i % 3 }

func (c *clusterBase) start(e *env, shards int, withStore bool, home func(int) int) error {
	var err error
	if c.sessions, err = generate(c.mix, e.seed, home); err != nil {
		return err
	}
	if withStore {
		if c.storeDir, err = os.MkdirTemp(e.workdir, "store-"); err != nil {
			return err
		}
	}
	c.sys, err = newSystem(e, shardNames[:shards], 3, c.storeDir)
	return err
}

func (c *clusterBase) prepare(*env) (err error) {
	c.refs, c.fleetRef, err = prepareReferences(c.sessions)
	return err
}

func (c *clusterBase) close() {
	if c.sys != nil {
		c.sys.close()
	}
	if c.storeDir != "" {
		_ = os.RemoveAll(c.storeDir) // scratch space; a leftover is harmless
	}
}

// upload runs two closed-loop uploaders, each owning every other
// session of the corpus and POSTing their chunks round robin, in the run
// seed's order, as a tracegen -stream producer per session would.
func (c *clusterBase) upload(r int, rec *recorder) error {
	start := time.Now()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			var own []*session
			for _, s := range c.sessions {
				if s.corpus%2 == u {
					own = append(own, s)
				}
			}
			for k := 0; ; k++ {
				sent := false
				for _, s := range own {
					if k < len(s.chunks) {
						t := time.Now()
						err := c.sys.ingest(s.name(r), s.chunks[k])
						rec.op(opIngest, t, err)
						if err != nil {
							errs[u] = err
							return
						}
						sent = true
					}
				}
				if !sent {
					return
				}
			}
		}(u)
	}
	wg.Wait()
	rec.ingested(time.Since(start))
	return errors.Join(errs...)
}

// getSnapshot fetches one session's snapshot, records it, and checks it
// against the reference bytes.
func (c *clusterBase) getSnapshot(s *session, r int, rec *recorder, start time.Time, want []byte, records int) error {
	b, err := c.sys.snapshot(s.name(r))
	rec.op(opSnapshot, start, err)
	rec.snapshotted(s.name(r), records)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("%s: served snapshot differs from the in-process reference", s.name(r))
	}
	return nil
}

// getFleet asks for a fleet view, which snapshots every live session,
// and checks it against want; records are the inputs the sessions had.
func (c *clusterBase) getFleet(pathQuery string, r int, rec *recorder, want []byte, records []int) error {
	t := time.Now()
	b, err := c.sys.do(http.MethodGet, pathQuery, nil)
	rec.op(opFleet, t, err)
	for i, s := range c.sessions {
		rec.snapshotted(s.name(r), records[i])
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("%s differs from the in-process reference", pathQuery)
	}
	return nil
}

// wholeSessions is every session's full record count.
func wholeSessions(ss []*session) []int {
	out := make([]int, len(ss))
	for i, s := range ss {
		out[i] = s.events
	}
	return out
}

// release closes the round's sessions; it is not timed.
func (c *clusterBase) release(r int) error {
	_, err := c.sys.closeAll(c.sessions, r)
	return err
}

// clusterIngest is the cluster-ingest workload: two uploaders through
// the gateway to three shards, then one reader fetches the snapshot of
// each session and asks for the fleet top-streams view. Every read sees
// data that arrived since the session's previous read, except the fleet
// view's re-snapshots, so a result cache would save little here.
type clusterIngest struct{ clusterBase }

func (w *clusterIngest) setup(e *env) error { return w.start(e, 3, false, byUploader) }

func (w *clusterIngest) round(e *env, r int, rec *recorder) error {
	base := liveHeap()
	if err := e.timed(rec, func() error { return w.upload(r, rec) }); err != nil {
		return err
	}
	if err := w.sys.checkRows(w.sessions, w.refs, r); err != nil {
		return err
	}
	if err := e.timed(rec, func() error {
		for _, s := range w.sessions {
			if err := w.getSnapshot(s, r, rec, time.Now(), s.ref, s.events); err != nil {
				return err
			}
		}
		return w.getFleet(fmt.Sprintf("/v1/fleet/streams?top=%d", fleetTop), r, rec, w.fleetRef, wholeSessions(w.sessions))
	}); err != nil {
		return err
	}
	rec.addRound(totalEvents(w.sessions), liveHeap()-base)
	return w.release(r)
}

// clusterQuery is the cluster-query workload: the sessions are uploaded
// at the start of the round and never change afterwards, while one
// closed-loop reader works through a seed-shuffled list of snapshot and
// fleet-clustering requests. Every read after the first of a session
// recomputes a result the service already produced.
type clusterQuery struct {
	clusterBase
	snapshots, fleets int                // requests per round
	clusters          fleet.ClustersView // of the reference snapshots, under base names
}

func (w *clusterQuery) setup(e *env) error { return w.start(e, 3, false, byUploader) }

func (w *clusterQuery) prepare(e *env) error {
	if err := w.clusterBase.prepare(e); err != nil {
		return err
	}
	names := make([]string, len(w.sessions))
	snaps := make([][]byte, len(w.sessions))
	for i, s := range w.sessions {
		names[i], snaps[i] = s.base, s.ref
	}
	fps, err := fingerprints(names, snaps)
	if err != nil {
		return err
	}
	w.clusters = fleet.ClusterView(fps, fleet.DefaultClusterThreshold, 2)
	return nil
}

// clustersRef is the /v1/fleet/clusters document for round r: the
// reference clustering with each base name replaced by the session's
// name in round r. Clustering orders sessions, clusters and ties by
// name, and ordering the round's names orders their bases (every name is
// "r<r>-<base>-<k>", and no base is a prefix of another), so this is
// the document the service computes; clustering anew each round would
// cost more than a second.
func (w *clusterQuery) clustersRef(r int) ([]byte, error) {
	names := map[string]string{}
	for _, s := range w.sessions {
		names[s.base] = s.name(r)
	}
	v := w.clusters
	v.Clusters = make([]fleet.Cluster, len(w.clusters.Clusters))
	for i, c := range w.clusters.Clusters {
		c.ID = names[c.ID]
		c.Sessions = make([]string, len(c.Sessions))
		for k, base := range w.clusters.Clusters[i].Sessions {
			c.Sessions[k] = names[base]
		}
		v.Clusters[i] = c
	}
	return servedJSON(v)
}

func (w *clusterQuery) round(e *env, r int, rec *recorder) error {
	base := liveHeap()
	if err := e.timed(rec, func() error { return w.upload(r, rec) }); err != nil {
		return err
	}
	if err := w.sys.checkRows(w.sessions, w.refs, r); err != nil {
		return err
	}
	clusters, err := w.clustersRef(r)
	if err != nil {
		return err
	}
	// The request list: each session equally often, fleet views spread
	// through it, in an order fixed by the run seed and the round.
	plan := make([]int, 0, w.snapshots+w.fleets)
	for i := 0; i < w.snapshots; i++ {
		plan = append(plan, i%len(w.sessions))
	}
	for i := 0; i < w.fleets; i++ {
		plan = append(plan, -1)
	}
	rand.New(rand.NewSource(e.seed*7919+int64(r))).Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })

	if err := e.timed(rec, func() error {
		for _, i := range plan {
			if i >= 0 {
				s := w.sessions[i]
				if err := w.getSnapshot(s, r, rec, time.Now(), s.ref, s.events); err != nil {
					return err
				}
			} else if err := w.getFleet("/v1/fleet/clusters", r, rec, clusters, wholeSessions(w.sessions)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rec.addRound(totalEvents(w.sessions), liveHeap()-base)
	return w.release(r)
}

// clusterMixed is the cluster-mixed workload: one uploader POSTs closed
// loop while one query goroutine snapshots each session at 25/50/75/100%
// of its upload, asks for the fleet top-streams view once every session
// is half uploaded, and makes four membership changes during the second
// half, all through one gateway over shards sharing a store. A due
// snapshot holds its session's uploads until it returns, and the fleet
// view holds every session, so each read sees a fixed prefix; a
// snapshot is timed from the moment it became due. Each session's last
// chunk waits for the last membership change: a session that a change
// drained is absent from fleet views and session listings until its next
// upload or snapshot rehydrates it, so every session is touched after
// the last change, and none is moved before the fleet view.
type clusterMixed struct {
	clusterBase
	st          *store.Store
	checkpoints [][]int    // per session: chunk counts that make a snapshot due
	checkSnaps  [][][]byte // per session, per checkpoint: reference snapshot
	moved       []float64  // sessions moved per membership change
}

// halfway is the checkpoint at which every session waits for the fleet
// view.
const halfway = 1

// membership is one round's changes, in order; the cluster ends the
// round with the shards it started with.
var membership = []struct {
	add   bool
	shard string
}{{true, "s4"}, {false, "s2"}, {true, "s2"}, {false, "s4"}}

func (w *clusterMixed) setup(e *env) error {
	if err := w.start(e, 4, true, spread); err != nil {
		return err
	}
	var err error
	w.st, err = store.Open(w.storeDir)
	return err
}

func (w *clusterMixed) prepare(*env) error {
	w.refs = make([]*online.Engine, len(w.sessions))
	w.checkpoints = make([][]int, len(w.sessions))
	w.checkSnaps = make([][][]byte, len(w.sessions))
	half := make([][]byte, len(w.sessions))
	for i, s := range w.sessions {
		n := len(s.chunks)
		if n < 4 {
			return fmt.Errorf("%s: %d chunks; the round's schedule needs at least 4", s.base, n)
		}
		cps := []int{(n + 3) / 4, (n + 1) / 2, (3*n + 3) / 4, n}
		var err error
		if w.refs[i], w.checkSnaps[i], err = reference(s, cps...); err != nil {
			return err
		}
		w.checkpoints[i] = cps
		s.ref = w.checkSnaps[i][3]
		half[i] = w.checkSnaps[i][halfway]
	}
	var err error
	w.fleetRef, err = topStreamsJSON(half)
	return err
}

// mixedJob is one due action of the query goroutine.
type mixedJob struct {
	due     time.Time
	session int // snapshot: session index and checkpoint
	cp      int
	change  int  // membership change index, or -1
	fleet   bool // the fleet view at half way
}

// What the query goroutine sends on released: a session index releases
// one session's uploads; fleetDone and changesDone report that the fleet
// view and the last membership change have returned.
const (
	fleetDone   = -1
	changesDone = -2
)

func (w *clusterMixed) round(e *env, r int, rec *recorder) error {
	base := liveHeap()
	n := len(w.sessions)
	total := 0
	for _, s := range w.sessions {
		total += len(s.chunks)
	}
	var qerr error
	if err := e.timed(rec, func() error {
		// Buffers sized to every send of one round, so neither side blocks
		// on the other's bookkeeping.
		jobs := make(chan mixedJob, 4*n+len(membership)+1)
		released := make(chan int, 4*n+2)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			qerr = w.serveJobs(r, rec, jobs, released)
		}()
		start := time.Now()
		err := w.uploadHeld(r, rec, total, jobs, released)
		rec.ingested(time.Since(start))
		close(jobs)
		wg.Wait()
		return err
	}); err != nil {
		return err
	}
	if qerr != nil {
		return qerr
	}
	if err := w.sys.checkRows(w.sessions, w.refs, r); err != nil {
		return err
	}
	rec.addRound(totalEvents(w.sessions), liveHeap()-base)

	// Release: each close persists the session's final snapshot, which
	// must equal the reference engine's after every handoff of the round.
	results, err := w.sys.closeAll(w.sessions, r)
	if err != nil {
		return err
	}
	if err := w.st.Refresh(); err != nil {
		return err
	}
	for i, res := range results {
		b, err := w.st.ReadBlob(res.Digest)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, w.sessions[i].ref) {
			return fmt.Errorf("%s: final snapshot after handoffs differs from the reference", res.Session)
		}
		if err := w.st.Delete(res.Artifact); err != nil {
			return err
		}
	}
	_, err = w.st.GC()
	return err
}

// uploadHeld POSTs every session's chunks round robin, skipping
// sessions held by a due snapshot, and hands the query goroutine each
// due snapshot, membership change and the fleet view. A session that
// reaches half way waits there until the fleet view has returned, and
// one with only its last chunk left waits until the last membership
// change has returned. The changes are due at even steps between the
// first upload after the fleet view and the moment every session waits
// at its last chunk.
func (w *clusterMixed) uploadHeld(r int, rec *recorder, total int, jobs chan<- mixedJob, released <-chan int) error {
	n := len(w.sessions)
	pos := make([]int, n)
	held := make([]bool, n)
	cp := make([]int, n)
	half := 0
	for i := range w.sessions {
		half += w.checkpoints[i][halfway]
	}
	span := total - n - half // chunks posted between the fleet view and the last chunks; at least 1
	fleetSent, fleetBack, changesBack := false, false, false
	free := func(i int) {
		switch i {
		case fleetDone:
			fleetBack = true
		case changesDone:
			changesBack = true
		default:
			held[i] = false
		}
	}
	posted, cursor := 0, 0
	for posted < total {
	drain:
		for {
			select {
			case i := <-released:
				free(i)
			default:
				break drain
			}
		}
		i := -1
		for k := 0; k < n; k++ {
			c := (cursor + k) % n
			last := len(w.sessions[c].chunks) - 1
			if !held[c] && pos[c] <= last && (fleetBack || pos[c] < w.checkpoints[c][halfway]) && (changesBack || pos[c] < last) {
				i = c
				break
			}
		}
		if i < 0 {
			free(<-released)
			continue
		}
		cursor = i + 1
		s := w.sessions[i]
		t := time.Now()
		err := w.sys.ingest(s.name(r), s.chunks[pos[i]])
		rec.op(opIngest, t, err)
		if err != nil {
			return err
		}
		pos[i]++
		posted++
		if cp[i] < len(w.checkpoints[i]) && pos[i] == w.checkpoints[i][cp[i]] {
			held[i] = true
			jobs <- mixedJob{due: time.Now(), session: i, cp: cp[i], change: -1}
			cp[i]++
		}
		for c := range membership {
			if fleetBack && posted == half+1+(span-1)*c/(len(membership)-1) {
				jobs <- mixedJob{due: time.Now(), change: c}
			}
		}
		if !fleetSent && w.allAt(pos, halfway) {
			fleetSent = true
			jobs <- mixedJob{due: time.Now(), change: -1, fleet: true}
		}
	}
	return nil
}

// allAt reports whether every session has posted exactly the chunks of
// checkpoint cp.
func (w *clusterMixed) allAt(pos []int, cp int) bool {
	for i, p := range pos {
		if p != w.checkpoints[i][cp] {
			return false
		}
	}
	return true
}

// serveJobs is the query goroutine. After a failure it keeps releasing
// held sessions so the uploader can finish, and reports the first error.
func (w *clusterMixed) serveJobs(r int, rec *recorder, jobs <-chan mixedJob, released chan<- int) error {
	var first error
	for j := range jobs {
		rec.sample(opLag, time.Since(j.due))
		var err error
		switch {
		case j.fleet:
			if first == nil {
				records := make([]int, len(w.sessions))
				for k, s := range w.sessions {
					records[k] = min(w.checkpoints[k][halfway]*chunkRecords, s.events)
				}
				err = w.getFleet(fmt.Sprintf("/v1/fleet/streams?top=%d", fleetTop), r, rec, w.fleetRef, records)
			}
			released <- fleetDone
		case j.change >= 0:
			if first == nil {
				t := time.Now()
				var moved []string
				m := membership[j.change]
				if m.add {
					moved, err = w.sys.join(m.shard)
				} else {
					moved, err = w.sys.leave(m.shard)
				}
				rec.op(opRebalance, t, err)
				w.moved = append(w.moved, float64(len(moved)))
			}
			if j.change == len(membership)-1 {
				released <- changesDone
			}
		default:
			if first == nil {
				s := w.sessions[j.session]
				records := min(w.checkpoints[j.session][j.cp]*chunkRecords, s.events)
				err = w.getSnapshot(s, r, rec, j.due, w.checkSnaps[j.session][j.cp], records)
			}
			released <- j.session
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// rebalanceResult is the gateway's add/remove response.
type rebalanceResult struct {
	Moved []string `json:"moved"`
}

func parseMoved(b []byte, err error) ([]string, error) {
	if err != nil {
		return nil, err
	}
	var res rebalanceResult
	err = json.Unmarshal(b, &res)
	return res.Moved, err
}

// extras reports how evenly the ring places this workload's records
// over the three shards.
func (c *clusterBase) extras(out map[string]float64) {
	out["cluster.shard_skew"] = shardSkew(c.sessions, shardNames[:3])
}

// extras adds the cost of the clustering view's two quadratic steps,
// measured in process over the sessions' fingerprints.
func (w *clusterQuery) extras(out map[string]float64) {
	w.clusterBase.extras(out)
	fps := make([]*fleet.Fingerprint, len(w.sessions))
	for i, s := range w.sessions {
		var snap online.Snapshot
		if err := json.Unmarshal(s.ref, &snap); err != nil {
			return
		}
		fps[i] = fleet.New(s.base, &snap)
	}
	t := time.Now()
	fleet.Matrix(fps, 2)
	out["fleet.matrix_ms"] = ms(time.Since(t))
	t = time.Now()
	fleet.ClusterView(fps, fleet.DefaultClusterThreshold, 2)
	out["fleet.cluster_ms"] = ms(time.Since(t))
}

// extras adds the sessions each membership change moved.
func (w *clusterMixed) extras(out map[string]float64) {
	w.clusterBase.extras(out)
	out["cluster.moved_sessions"] = quantile(w.moved, 0.5)
}
