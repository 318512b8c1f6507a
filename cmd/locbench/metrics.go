package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root carries the same names, units and directions; the
// tests hold the two in step.
type metricSpec struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the numbers a user of the service sees. Every workload
// reports every one of them: each workload ingests, snapshots and asks
// for a fleet view, so the comparison is always per workload × metric.
//
// Every timing bound is 0.25, the most a bound may be: on the reference
// host the run-to-run spread of the timings is 5-40%, so the 10% and 15%
// bounds first planned would leave every timing unresolved
// (README.md, "Host noise and the bounds").
var endToEnd = []metricSpec{
	{"rec_per_s", "records/s", "higher", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"ingest_p75_ms", "ms", "lower", 0.25},
	{"snapshot_p50_ms", "ms", "lower", 0.25},
	{"snapshot_p75_ms", "ms", "lower", 0.25},
	{"fleet_p50_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's per-layer numbers that every workload
// measures. Cluster-only layers (HTTP framing, gateway, shard handlers)
// are printed in the per-layer table and written to -out, but are not
// declared here because the in-process workload has no such layer.
var perLayer = []metricSpec{
	{"trace.decode_ns_per_rec", "ns", "lower", 0},
	{"trace.stats_ns_per_rec", "ns", "lower", 0},
	{"abstract.ns_per_rec", "ns", "lower", 0},
	{"abstract.objects", "count", "lower", 0},
	{"sequitur.append_ns_per_ref", "ns", "lower", 0},
	{"sequitur.rules", "count", "lower", 0},
	{"sequitur.symbols", "count", "lower", 0},
	{"sequitur.read_state_ms", "ms", "lower", 0},
	{"online.ingest_ns_per_rec", "ns", "lower", 0},
	{"online.ingest_unexplained_pct", "%", "lower", 0},
	{"online.alloc_bytes_per_rec", "B", "lower", 0},
	{"online.allocs_per_rec", "count", "lower", 0},
	{"handoff.encode_ms", "ms", "lower", 0},
	{"handoff.decode_ms", "ms", "lower", 0},
	{"handoff.state_bytes", "B", "lower", 0},
	{"store.put_ms", "ms", "lower", 0},
	{"store.read_ms", "ms", "lower", 0},
	{"snapshot.sequitur_ms", "ms", "lower", 0},
	{"snapshot.threshold_ms", "ms", "lower", 0},
	{"snapshot.detect_ms", "ms", "lower", 0},
	{"snapshot.measure_ms", "ms", "lower", 0},
	{"snapshot.summary_ms", "ms", "lower", 0},
	{"snapshot.computed", "count", "lower", 0},
	{"snapshot.waste_frac", "ratio", "lower", 0},
	{"fleet.fingerprint_ms", "ms", "lower", 0},
	{"go.gc_cpu_frac", "ratio", "lower", 0},
	{"go.alloc_mb", "MB", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// Operation kinds whose latencies the recorder keeps.
const (
	opIngest    = "ingest"    // one 4096-record chunk, sent to acknowledged
	opSnapshot  = "snapshot"  // one session's snapshot document
	opFleet     = "fleet"     // one fleet view over every live session
	opRebalance = "rebalance" // one membership change (cluster-mixed)
	opLag       = "lag"       // how late a due snapshot was issued (cluster-mixed)
)

// recorder collects one pass's timed operations. It is shared by the
// workload's client goroutines.
type recorder struct {
	mu         sync.Mutex
	lat        map[string][]float64 // op -> latency samples, ms
	attempted  int
	failed     int
	records    int           // records ingested in the pass's rounds
	ingestWall time.Duration // time the rounds spent ingesting them
	heapMB     []float64     // live heap the system holds, one sample per round
	timed      time.Duration

	// Snapshot bookkeeping for snapshot.waste_frac: a snapshot of a
	// session whose input has not grown since its previous snapshot
	// recomputes a result the service already produced.
	snapped map[string]int // session -> records at its last snapshot
	wasted  int

	// Charged by env.timed over the timed phases.
	stageCount []uint64
	stageSum   []time.Duration
	gcCPU, cpu float64
	alloc      uint64
}

func newRecorder() *recorder {
	return &recorder{
		lat:        map[string][]float64{},
		snapped:    map[string]int{},
		stageCount: make([]uint64, len(snapshotStages)),
		stageSum:   make([]time.Duration, len(snapshotStages)),
	}
}

// op records one operation that started at start; a failed operation
// counts against attempted and contributes no latency sample.
func (r *recorder) op(kind string, start time.Time, err error) {
	d := time.Since(start)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		return
	}
	r.lat[kind] = append(r.lat[kind], ms(d))
}

// sample records a latency that is not an attempted operation of its
// own (the generator lag).
func (r *recorder) sample(kind string, d time.Duration) {
	r.mu.Lock()
	r.lat[kind] = append(r.lat[kind], ms(d))
	r.mu.Unlock()
}

// ingested records wall time the round spent ingesting its records.
func (r *recorder) ingested(d time.Duration) {
	r.mu.Lock()
	r.ingestWall += d
	r.mu.Unlock()
}

func (r *recorder) addProbe(d time.Duration, before, after probe) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timed += d
	for i := range snapshotStages {
		r.stageCount[i] += after.count[i] - before.count[i]
		r.stageSum[i] += after.sum[i] - before.sum[i]
	}
	r.gcCPU += after.gcCPU - before.gcCPU
	r.cpu += after.cpu - before.cpu
	r.alloc += after.alloc - before.alloc
}

// snapshotted notes that the service computed a snapshot of session
// after records of its input had arrived.
func (r *recorder) snapshotted(session string, records int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if last, ok := r.snapped[session]; ok && last == records {
		r.wasted++
	}
	r.snapped[session] = records
}

// addRound closes one round: records were ingested in the round's timed
// phases, and the system held heapBytes of live heap once the round's
// reads were done.
func (r *recorder) addRound(records int, heapBytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records += records
	r.heapMB = append(r.heapMB, float64(heapBytes)/1e6)
}

func (r *recorder) rounds() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.heapMB)
}

// endToEndMetrics renders the recorder into the end-to-end metrics;
// setup is the median set-up time in seconds.
func (r *recorder) endToEndMetrics(setup float64) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return map[string]float64{
		"rec_per_s":       float64(r.records) / r.ingestWall.Seconds(),
		"ingest_p50_ms":   quantile(r.lat[opIngest], 0.50),
		"ingest_p75_ms":   quantile(r.lat[opIngest], 0.75),
		"snapshot_p50_ms": quantile(r.lat[opSnapshot], 0.50),
		"snapshot_p75_ms": quantile(r.lat[opSnapshot], 0.75),
		"fleet_p50_ms":    quantile(r.lat[opFleet], 0.50),
		"heap_mb":         quantile(r.heapMB, 0.5),
		"setup_s":         setup,
	}
}

// layerMetrics renders the traced pass's per-layer numbers: the
// snapshot stages (mean per snapshot computed), snapshot waste, the
// runtime's share, and the operations only some workloads make.
func (r *recorder) layerMetrics(out map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rounds := float64(len(r.heapMB))
	for i, st := range snapshotStages {
		out["snapshot."+st+"_ms"] = ms(r.stageSum[i]) / float64(r.stageCount[i])
	}
	computed := float64(r.stageCount[0])
	out["snapshot.computed"] = computed / rounds
	out["snapshot.waste_frac"] = float64(r.wasted) / computed
	out["go.gc_cpu_frac"] = r.gcCPU / r.cpu
	out["go.alloc_mb"] = float64(r.alloc) / 1e6 / rounds
	if xs := r.lat[opRebalance]; len(xs) > 0 {
		out["cluster.rebalance_p50_ms"] = quantile(xs, 0.5)
		out["gen.lag_ms"] = quantile(r.lat[opLag], 0.5)
	}
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so -compare's spreads match a Python analysis of
// the same runs. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
