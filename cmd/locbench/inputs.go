package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/abstract"
	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/online"
	"repro/internal/sequitur"
	"repro/internal/store"
	"repro/internal/trace"
	gen "repro/internal/workload"
)

// chunkRecords is the upload granularity: one POST (or one in-process
// ReadChunk + Ingest) carries this many records, as tracegen -stream
// and locserve's batcher do.
const chunkRecords = 4096

// session is one generated upload: a workload family's trace at one
// generator seed, pre-encoded into chunkRecords-record chunks. Each
// chunk is a complete record stream, so each can be one POST body.
type session struct {
	base   string // family and generator seed
	corpus int    // position in the trace corpus, before the run seed's shuffle
	home   int    // index in shardNames of the shard the session lives on, or -1
	names  map[int]string
	chunks [][]byte
	events int
	stats  trace.Stats
	ref    []byte // canonical snapshot bytes of the whole session
}

// homes guards the ring that places sessions on their home shards, and
// every session's names.
var homes = struct {
	sync.Mutex
	ring *cluster.Ring
}{ring: cluster.NewRing(0)}

func init() {
	for _, sh := range shardNames[:3] {
		homes.ring.Add(sh)
	}
}

// name is the session's name in round r. Every round uses fresh names,
// so nothing a shard remembers about an earlier round can answer for
// this one. A session with a home shard takes the first of
// "r<r>-<base>-<k>", k = 0, 1, ..., that the gateway's three-shard ring
// places there: where the ring puts a session decides which sessions
// queue behind one shard's forwarding sender, and left to the hash of
// each round's names it moved a round's ingest rate by 2x.
func (s *session) name(r int) string {
	if s.home < 0 {
		return fmt.Sprintf("r%d-%s", r, s.base)
	}
	homes.Lock()
	defer homes.Unlock()
	if n, ok := s.names[r]; ok {
		return n
	}
	n := ""
	for k := 0; n == "" || homes.ring.Owner(n) != shardNames[s.home]; k++ {
		n = fmt.Sprintf("r%d-%s-%d", r, s.base, k)
	}
	s.names[r] = n
	return n
}

// reader streams the whole session as one encoded record stream.
func (s *session) reader() io.Reader {
	rs := make([]io.Reader, len(s.chunks))
	for i, c := range s.chunks {
		rs[i] = bytes.NewReader(c)
	}
	return io.MultiReader(rs...)
}

// mix names the families, how many generator seeds of each a workload
// uploads, and the session size in references.
type mix struct {
	families []string
	seeds    int
	refs     int
}

// generate builds the sessions of a mix. The traces are a fixed corpus,
// generator seeds 1..m.seeds of each family: the analysis cost of a
// generated trace moves by tens of percent with its generator seed
// (the threshold search runs a data-dependent number of passes), which
// would swamp the bounds the metrics are held to. The run seed instead
// varies the traffic: it orders the sessions within each seed group,
// which sets the upload interleaving and the read order. The same run
// seed always yields the same sessions in the same order. Placement does
// not depend on it: home places the session at corpus position i on
// shard home(i), or nowhere when home is nil, so every seed moves and
// rehydrates the same sessions.
func generate(m mix, runSeed int64, home func(i int) int) ([]*session, error) {
	rng := rand.New(rand.NewSource(runSeed))
	var out []*session
	for k := 0; k < m.seeds; k++ {
		group := make([]*session, 0, len(m.families))
		for _, fam := range m.families {
			buf, err := gen.Generate(fam, m.refs, int64(k+1))
			if err != nil {
				return nil, err
			}
			s := &session{base: fmt.Sprintf("%s-%d", fam, k+1), corpus: k*len(m.families) + len(group), home: -1, names: map[int]string{}, stats: buf.Stats()}
			evs := buf.Events()
			s.events = len(evs)
			for off := 0; off < len(evs); off += chunkRecords {
				var b bytes.Buffer
				w := trace.NewWriter(&b)
				for _, e := range evs[off:min(off+chunkRecords, len(evs))] {
					if err := w.Write(e); err != nil {
						return nil, err
					}
				}
				if err := w.Flush(); err != nil {
					return nil, err
				}
				s.chunks = append(s.chunks, b.Bytes())
			}
			group = append(group, s)
		}
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		out = append(out, group...)
	}
	if home != nil {
		for _, s := range out {
			s.home = home(s.corpus)
		}
	}
	return out, nil
}

func totalEvents(ss []*session) int {
	n := 0
	for _, s := range ss {
		n += s.events
	}
	return n
}

// sessionRow is one /v1/sessions row, the part the checks compare.
type sessionRow struct {
	Session string `json:"session"`
	Events  uint64 `json:"events"`
	Refs    uint64 `json:"refs"`
	Rules   int    `json:"rules"`
}

// reference is an in-process engine fed the same chunks the service
// receives, one IngestReader call per chunk like one POST per chunk. It
// returns the engine and its canonical snapshot bytes after each chunk
// count listed in at (the whole session when at is empty).
func reference(s *session, at ...int) (*online.Engine, [][]byte, error) {
	if len(at) == 0 {
		at = []int{len(s.chunks)}
	}
	e := online.NewEngine(online.Options{})
	var snaps [][]byte
	for i, c := range s.chunks {
		if _, err := e.IngestReader(bytes.NewReader(c)); err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", s.base, err)
		}
		for _, a := range at {
			if a == i+1 {
				b, err := e.Snapshot().MarshalIndent()
				if err != nil {
					return nil, nil, err
				}
				snaps = append(snaps, b)
			}
		}
	}
	if uint64(s.events) != e.Events() || s.stats != e.Stats() || e.Err() != nil {
		return nil, nil, fmt.Errorf("reference %s: engine saw %d events (want %d), err %v", s.base, e.Events(), s.events, e.Err())
	}
	return e, snaps, nil
}

func rowOf(name string, e *online.Engine) sessionRow {
	return sessionRow{Session: name, Events: e.Events(), Refs: e.Refs(), Rules: e.Rules()}
}

// prepareReferences fills every session's whole-session reference
// snapshot and returns the reference engines and the fleet top-streams
// document over those snapshots.
func prepareReferences(ss []*session) ([]*online.Engine, []byte, error) {
	engines := make([]*online.Engine, len(ss))
	snaps := make([][]byte, len(ss))
	for i, s := range ss {
		e, at, err := reference(s)
		if err != nil {
			return nil, nil, err
		}
		engines[i], s.ref, snaps[i] = e, at[0], at[0]
	}
	fleetRef, err := topStreamsJSON(snaps)
	return engines, fleetRef, err
}

// fleetTop is the stream count the workloads' top-streams views ask for.
const fleetTop = 20

// fingerprints are the fleet fingerprints of sessions whose snapshots
// are snaps, named by names.
func fingerprints(names []string, snaps [][]byte) ([]*fleet.Fingerprint, error) {
	fps := make([]*fleet.Fingerprint, len(snaps))
	for i, b := range snaps {
		var snap online.Snapshot
		if err := json.Unmarshal(b, &snap); err != nil {
			return nil, err
		}
		fps[i] = fleet.New(names[i], &snap)
	}
	return fps, nil
}

// topStreamsJSON is the /v1/fleet/streams?top=fleetTop document of a
// service that holds sessions with these snapshots. The view carries no
// session names, so any names do.
func topStreamsJSON(snaps [][]byte) ([]byte, error) {
	fps, err := fingerprints(make([]string, len(snaps)), snaps)
	if err != nil {
		return nil, err
	}
	return servedJSON(fleet.TopStreams(fps, fleetTop))
}

// servedJSON encodes v the way the serve and cluster handlers write it.
func servedJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// layerCosts accumulates the in-process per-layer measurements over a
// workload's sessions: the same bytes replayed chunk by chunk through
// each layer's public call, timed per chunk.
type layerCosts struct {
	records, refs, bytes             int
	decode, stats, abstract, appendT time.Duration
	engine                           time.Duration // untraced IngestReader over the same bytes
	allocBytes, allocs               uint64
	objects, rules, symbols          int
	readState                        time.Duration
	encode, decodeState, put, read   time.Duration
	stateBytes                       int64
	fingerprint                      time.Duration
	sessions                         int
}

// measureLayers replays and hands off every session in process. It
// checks that the replayed layers agree with the engine, and that the
// handed-off engine re-encodes to the same bytes.
func measureLayers(ss []*session, st *store.Store) (layerCosts, error) {
	var c layerCosts
	for _, s := range ss {
		if err := c.replay(s); err != nil {
			return c, err
		}
		if err := c.handoff(s, st); err != nil {
			return c, err
		}
	}
	return c, nil
}

// replay drives the four per-record layers the engine composes
// (ReadChunk, StatsAccum.Add, Streamer.Process, Grammar.Append) one
// chunk at a time, then ingests the same bytes through a fresh engine
// for the untraced reference time and allocation counts.
func (c *layerCosts) replay(s *session) error {
	tr := trace.NewReader(s.reader())
	buf := make([]trace.Event, chunkRecords)
	acc := trace.NewStatsAccum()
	names := make([]uint64, 0, chunkRecords)
	abs := abstract.New(abstract.BirthID).SinkStreamer(func(name uint64, _, _ uint32) {
		names = append(names, name)
	})
	g := sequitur.New()
	for {
		t0 := time.Now()
		n, err := tr.ReadChunk(buf)
		t1 := time.Now()
		for _, ev := range buf[:n] {
			acc.Add(ev)
		}
		t2 := time.Now()
		names = names[:0]
		for _, ev := range buf[:n] {
			abs.Process(ev)
		}
		t3 := time.Now()
		for _, name := range names {
			if aerr := g.Append(name); aerr != nil {
				return aerr
			}
		}
		t4 := time.Now()
		c.decode += t1.Sub(t0)
		c.stats += t2.Sub(t1)
		c.abstract += t3.Sub(t2)
		c.appendT += t4.Sub(t3)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := online.NewEngine(online.Options{})
	t0 := time.Now()
	if _, err := e.IngestReader(s.reader()); err != nil {
		return err
	}
	c.engine += time.Since(t0)
	runtime.ReadMemStats(&after)
	c.allocBytes += after.TotalAlloc - before.TotalAlloc
	c.allocs += after.Mallocs - before.Mallocs

	if acc.Stats() != e.Stats() || g.InputLen() != e.Refs() || g.NumRules() != e.Rules() {
		return fmt.Errorf("replay of %s disagrees with the engine: %d refs/%d rules, engine %d/%d",
			s.base, g.InputLen(), g.NumRules(), e.Refs(), e.Rules())
	}
	c.records += s.events
	for _, ch := range s.chunks {
		c.bytes += len(ch)
	}
	c.refs += int(g.InputLen())
	c.objects += len(abs.Objects())
	c.rules += g.NumRules()
	c.sessions++

	var gs bytes.Buffer
	if _, err := g.WriteState(&gs); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := sequitur.ReadState(&gs); err != nil {
		return err
	}
	c.readState += time.Since(t0)

	var snap online.Snapshot
	if err := json.Unmarshal(s.ref, &snap); err != nil {
		return err
	}
	c.symbols += snap.Grammar.Symbols
	t0 = time.Now()
	fleet.New(s.base, &snap)
	c.fingerprint += time.Since(t0)
	return nil
}

// handoff moves the session's engine the way a rebalance does: encode
// the live state, put it in the store, read it back, decode it.
func (c *layerCosts) handoff(s *session, st *store.Store) error {
	e := online.NewEngine(online.Options{})
	if _, err := e.IngestReader(s.reader()); err != nil {
		return err
	}
	var state bytes.Buffer
	t0 := time.Now()
	if _, err := e.WriteState(&state); err != nil {
		return err
	}
	t1 := time.Now()
	d, n, err := st.PutBytes(state.Bytes())
	if err == nil {
		err = st.Put("state/"+s.base, store.Artifact{Kind: store.KindState, Digest: d, Size: n})
	}
	if err != nil {
		return err
	}
	t2 := time.Now()
	b, err := st.ReadBlob(d)
	if err != nil {
		return err
	}
	t3 := time.Now()
	moved, err := online.ReadEngine(bytes.NewReader(b), online.Options{})
	if err != nil {
		return err
	}
	t4 := time.Now()
	c.encode += t1.Sub(t0)
	c.put += t2.Sub(t1)
	c.read += t3.Sub(t2)
	c.decodeState += t4.Sub(t3)
	c.stateBytes += n

	var again bytes.Buffer
	if _, err := moved.WriteState(&again); err != nil {
		return err
	}
	if !bytes.Equal(again.Bytes(), state.Bytes()) {
		return fmt.Errorf("handoff of %s is not exact: state re-encodes to different bytes", s.base)
	}
	return st.Delete("state/" + s.base)
}

// metrics renders the in-process layer costs into per-layer metrics.
func (c layerCosts) metrics(out map[string]float64) {
	perRec := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	perSession := func(d time.Duration) float64 { return ms(d) / float64(c.sessions) }
	layered := c.decode + c.stats + c.abstract + c.appendT
	out["trace.decode_ns_per_rec"] = perRec(c.decode, c.records)
	out["trace.stats_ns_per_rec"] = perRec(c.stats, c.records)
	out["abstract.ns_per_rec"] = perRec(c.abstract, c.records)
	out["abstract.objects"] = float64(c.objects) / float64(c.sessions)
	out["sequitur.append_ns_per_ref"] = perRec(c.appendT, c.refs)
	out["sequitur.rules"] = float64(c.rules) / float64(c.sessions)
	out["sequitur.symbols"] = float64(c.symbols) / float64(c.sessions)
	out["sequitur.read_state_ms"] = perSession(c.readState)
	out["online.ingest_ns_per_rec"] = perRec(c.engine, c.records)
	out["online.ingest_unexplained_pct"] = 100 * float64(c.engine-layered) / float64(c.engine)
	out["online.alloc_bytes_per_rec"] = float64(c.allocBytes) / float64(c.records)
	out["online.allocs_per_rec"] = float64(c.allocs) / float64(c.records)
	out["handoff.encode_ms"] = perSession(c.encode)
	out["handoff.decode_ms"] = perSession(c.decodeState)
	out["handoff.state_bytes"] = float64(c.stateBytes) / float64(c.sessions)
	out["store.put_ms"] = perSession(c.put)
	out["store.read_ms"] = perSession(c.read)
	out["fleet.fingerprint_ms"] = perSession(c.fingerprint)
}
