// Command locbench measures the locality service end to end and layer
// by layer. It runs four workloads, each against the same public APIs a
// deployment uses (online.Engine in process; serve and cluster handlers
// behind loopback HTTP), checks every output it times against an
// in-process reference, and prints each metric by name with its unit.
//
// Usage:
//
//	locbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	         [-spans FILE] [-out FILE] [-workdir DIR]
//	locbench -compare A.jsonl B.jsonl
//
// For each workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with -trace 1 the per-layer ones. -out appends every metric of the
// run to a JSON-lines file, which -compare reads. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	short   bool // one round at small scale: the test configuration
	spans   string
	out     string
	workdir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("locbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	name := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 12, "timed seconds per pass; whole rounds run until they are used")
	traceFlag := fs.Int("trace", 0, "1: also run a traced pass and report the per-layer metrics")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the traced pass's spans to this file")
	fs.StringVar(&cfg.out, "out", "", "append every metric of the run to this JSON-lines file")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for the shards' store (default: the system temp directory)")
	fs.BoolVar(&cfg.short, "short", false, "one round per pass at small scale")
	compare := fs.Bool("compare", false, "compare two -out files: locbench -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "locbench: -compare needs two -out files")
			return 2
		}
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "locbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	cfg.trace = *traceFlag == 1
	var defs []workloadDef
	for _, d := range workloads {
		if *name == "all" || *name == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "locbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	code := 0
	for _, d := range defs {
		res, err := runWorkload(cfg, d, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "locbench: %s: %v\n", d.name, err)
			code = 1
		}
		// A run that failed before it attempted anything has no result.
		if res.Attempted > 0 {
			line, _ := json.Marshal(res.resultLine(cfg.trace)) // plain numbers and strings always marshal
			fmt.Fprintln(stdout, string(line))
		}
		if err == nil && cfg.out != "" {
			if err := appendOut(cfg.out, res); err != nil {
				fmt.Fprintln(stderr, "locbench:", err)
				code = 1
			}
		}
	}
	return code
}

// workload is one traffic mix against one system under test.
type workload interface {
	// setup generates the inputs from the seed and starts the system.
	setup(e *env) error
	// prepare computes the in-process references the checks use.
	prepare(e *env) error
	// round runs one fixed amount of work. Its timed phases go through
	// e.timed and record into rec; checks and the release of the round's
	// sessions are not timed. A failed check is an error.
	round(e *env, r int, rec *recorder) error
	// inputs are the sessions the per-layer replay measures.
	inputs() []*session
	close()
}

type workloadDef struct {
	name, why string
	make      func(e *env) workload
}

// Workload families, sized from measurements on the reference host
// (README.md, "Sizing"):
//   - largeGrammars at 1M references grow grammars of 2.5k-11.5k rules
//     and 3.9-5.8 MB of engine heap, past the 2 MB L2, while one snapshot
//     still takes under 0.3 s (sqlserver, 176.gcc, 181.mcf and 197.parser
//     take 3-10 s or more at that size);
//   - the irregular manyStreams families stress the threshold search;
//   - the fewStreams families keep fleet clustering, which is quadratic
//     in hot streams, within a round.
var (
	largeGrammars = []string{"boxsim", "255.vortex", "300.twolf"}
	manyStreams   = []string{"sqlserver", "197.parser", "300.twolf", "boxsim", "176.gcc", "181.mcf"} // cheapest snapshots first, for the short runs
	fewStreams    = []string{"197.parser", "252.eon", "255.vortex"}
)

var workloads = []workloadDef{
	{"ingest-inproc", "the engine alone on 1M-reference sessions whose grammars outgrow L2: per-record ingest, snapshot and fleet cost with no HTTP, gateway or store",
		func(e *env) workload {
			return &inproc{mix: mix{families: e.families(largeGrammars), seeds: 1, refs: e.refs(1_000_000)}}
		}},
	{"cluster-ingest", "the same 1M-reference sessions uploaded through the gateway to three shards, then read once: the gap to ingest-inproc is the service, on new data",
		func(e *env) workload {
			return &clusterIngest{clusterBase{mix: mix{families: e.families(largeGrammars), seeds: 1, refs: e.refs(1_000_000)}}}
		}},
	{"cluster-query", "repeated snapshot and clustering reads of 30k-reference sessions that do not change, so cached results could answer most of them",
		func(e *env) workload {
			return &clusterQuery{
				clusterBase: clusterBase{mix: mix{families: e.families(fewStreams), seeds: e.pick(3, 1), refs: e.refs(30_000)}},
				snapshots:   e.pick(18, 2), fleets: e.pick(2, 1),
			}
		}},
	{"cluster-mixed", "30k-reference many-stream sessions whose snapshots contend with uploads while rebalances hand them off through the store",
		func(e *env) workload {
			return &clusterMixed{clusterBase: clusterBase{mix: mix{families: e.families(manyStreams), seeds: 1, refs: e.refs(30_000)}}}
		}},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, d := range workloads {
		out[i] = d.name
	}
	return out
}

// env is what a workload sees of the run.
type env struct {
	seed    int64
	short   bool
	reg     *obs.Registry // stage timers of every engine under test
	tr      *tracer       // nil unless -trace 1
	tracing bool          // the current pass is the traced one
	workdir string
}

// pick is full in a measured run and short in the test configuration.
func (e *env) pick(full, short int) int {
	if e.short {
		return short
	}
	return full
}

// The test configuration's sessions: the first two families of a list,
// each just long enough for cluster-mixed's four snapshot checkpoints
// to fall on different chunks.
const (
	shortFamilies = 2
	shortRefs     = 16_000
)

func (e *env) families(fams []string) []string { return fams[:e.pick(len(fams), shortFamilies)] }

func (e *env) refs(full int) int { return e.pick(full, shortRefs) }

// timed runs one timed phase of a round and charges its wall time, the
// snapshot stage time the engines spent, and the runtime's GC and
// allocation work to rec.
func (e *env) timed(rec *recorder, fn func() error) error {
	if e.tracing {
		e.tr.setOn(true)
		defer e.tr.setOn(false)
	}
	before := takeProbe(e.reg)
	start := time.Now()
	err := fn()
	rec.addProbe(time.Since(start), before, takeProbe(e.reg))
	return err
}

// liveHeap is the live heap after two full collections: the second
// frees what sync.Pool victim caches (HTTP and JSON buffers) kept alive
// through the first, which otherwise moved the reading by up to 1 MB.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// snapshotStages are the stages the per-layer table reports; the stats
// stage only copies counters.
var snapshotStages = []string{pipeline.StageSequitur, pipeline.StageThreshold, pipeline.StageDetect, pipeline.StageMeasure, pipeline.StageSummary}

// probe is a reading of the counters a timed phase is charged with.
type probe struct {
	count      []uint64
	sum        []time.Duration
	gcCPU, cpu float64
	alloc      uint64
}

func takeProbe(reg *obs.Registry) probe {
	p := probe{count: make([]uint64, len(snapshotStages)), sum: make([]time.Duration, len(snapshotStages))}
	for i, st := range snapshotStages {
		t := reg.Timer(pipeline.StageTimerName(st))
		p.count[i], p.sum[i] = t.Count(), t.Sum()
	}
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	rtmetrics.Read(s)
	p.gcCPU, p.cpu, p.alloc = s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
	return p
}

// outcome is one workload's result.
type outcome struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// resultLine is the final JSON line: the declared end-to-end metrics,
// or with tracing the declared per-layer ones, each with its unit.
func (o outcome) resultLine(traced bool) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := map[string]value{}
	if o.Correct {
		for _, m := range specs {
			metrics[m.name] = value{o.Metrics[m.name], m.unit}
		}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, metrics}
}

// A run sets the system up at least setupRuns times, and more, up to
// maxSetupRuns, until the set-ups have taken setupSeconds in all; setup_s
// is the median. Set-ups of tens of milliseconds need the extra ones: at
// seven, cluster-mixed's setup_s spread by 35% over ten seeds.
const (
	setupRuns    = 7
	maxSetupRuns = 25
	setupSeconds = 1.5
)

func runWorkload(cfg config, d workloadDef, stdout io.Writer) (outcome, error) {
	res := outcome{Workload: d.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}}
	e := &env{seed: cfg.seed, short: cfg.short, reg: obs.New(), workdir: cfg.workdir}
	if e.workdir == "" {
		e.workdir = os.TempDir()
	}
	if cfg.trace {
		e.tr = &tracer{t0: time.Now()}
	}
	// The in-process workload measures the engine as BenchmarkOnlineIngest
	// does, with process-wide observability off; the cluster workloads
	// keep it on, as locserve and locgate run.
	if d.name == "ingest-inproc" {
		prev := obs.Default()
		obs.SetDefault(nil)
		defer obs.SetDefault(prev)
	}

	var setups []float64
	var w workload
	minRuns, maxRuns, total := setupRuns, maxSetupRuns, 0.0
	if cfg.short {
		minRuns, maxRuns = 1, 1
	}
	for len(setups) < maxRuns && (len(setups) < minRuns || total < setupSeconds) {
		if w != nil {
			w.close()
		}
		w = d.make(e)
		runtime.GC() // each set-up starts from a collected heap
		start := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return res, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		total += setups[len(setups)-1]
	}
	defer w.close()
	if err := w.prepare(e); err != nil {
		return res, fmt.Errorf("references: %w", err)
	}
	var costs layerCosts
	if cfg.trace {
		var err error
		if costs, err = layerCostsOf(w.inputs(), e.workdir); err != nil {
			return res, fmt.Errorf("layer replay: %w", err)
		}
	}

	r := 0
	if !cfg.short {
		warm := newRecorder()
		if err := w.round(e, r, warm); err != nil {
			res.Attempted, res.Failed = warm.attempted, warm.failed
			return res, fmt.Errorf("warm-up round: %w", err)
		}
	}
	untraced := newRecorder()
	err := measure(cfg, e, w, untraced, &r)
	res.Attempted, res.Failed = untraced.attempted, untraced.failed
	if err != nil {
		return res, err
	}
	for k, v := range untraced.endToEndMetrics(quantile(setups, 0.5)) {
		res.Metrics[k] = v
	}
	res.Rounds = untraced.rounds()
	printEndToEnd(stdout, d.name, cfg.seed, untraced, len(setups), res.Metrics)

	if cfg.trace {
		traced := newRecorder()
		e.tracing = true
		err := measure(cfg, e, w, traced, &r)
		e.tracing = false
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		if err != nil {
			return res, err
		}
		tracedE2E := traced.endToEndMetrics(res.Metrics["setup_s"])
		layers := map[string]float64{}
		costs.metrics(layers)
		traced.layerMetrics(layers)
		layers["trace_overhead_pct"] = 100 * (res.Metrics["rec_per_s"]/tracedE2E["rec_per_s"] - 1)
		link(e.tr.spans)
		spanMetrics(e.tr.spans, costs, traced.rounds(), layers)
		if x, ok := w.(interface{ extras(map[string]float64) }); ok {
			x.extras(layers)
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		printLayers(stdout, d.name, layers, res.Metrics, tracedE2E, e.tr.spans)
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, e.tr.spans); err != nil {
				return res, err
			}
		}
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if v, ok := res.Metrics[m.name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			return res, fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	res.Correct = true
	return res, nil
}

// measure runs whole rounds until the pass has spent cfg.seconds in
// timed phases (one round with -short).
func measure(cfg config, e *env, w workload, rec *recorder, r *int) error {
	for rec.rounds() == 0 || (!cfg.short && rec.timed.Seconds() < cfg.seconds) {
		*r++
		if err := w.round(e, *r, rec); err != nil {
			return fmt.Errorf("round %d: %w", *r, err)
		}
	}
	return nil
}

// layerCostsOf runs the in-process replay and handoff over a scratch
// store.
func layerCostsOf(ss []*session, workdir string) (layerCosts, error) {
	dir, err := os.MkdirTemp(workdir, "handoff-")
	if err != nil {
		return layerCosts{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return layerCosts{}, err
	}
	return measureLayers(ss, st)
}

func printEndToEnd(w io.Writer, name string, seed int64, rec *recorder, setups int, m map[string]float64) {
	fmt.Fprintf(w, "== %s  seed %d  rounds %d  timed %.1fs\n", name, seed, rec.rounds(), rec.timed.Seconds())
	samples := map[string]int{
		"rec_per_s": len(rec.heapMB), "heap_mb": len(rec.heapMB), "setup_s": setups,
		"ingest_p50_ms": len(rec.lat[opIngest]), "ingest_p75_ms": len(rec.lat[opIngest]),
		"snapshot_p50_ms": len(rec.lat[opSnapshot]), "snapshot_p75_ms": len(rec.lat[opSnapshot]),
		"fleet_p50_ms": len(rec.lat[opFleet]),
	}
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-18s %14.4f %-10s n=%d\n", s.name, m[s.name], s.unit, samples[s.name])
	}
}

func printLayers(w io.Writer, name string, layers, e2e, tracedE2E map[string]float64, spans []span) {
	fmt.Fprintf(w, "== %s  per layer (traced pass)\n", name)
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", k, layers[k], unitOf(k))
	}
	fmt.Fprintf(w, "  traced vs untraced end to end:\n")
	for _, s := range endToEnd[:len(endToEnd)-2] {
		fmt.Fprintf(w, "    %-18s %12.4f -> %12.4f %s (%+.1f%%)\n", s.name, e2e[s.name], tracedE2E[s.name], s.unit,
			100*(tracedE2E[s.name]/e2e[s.name]-1))
	}
	if len(spans) == 0 {
		return
	}
	agg := selfTimes(spans)
	keys := make([][2]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		li, lj := layerIndex(keys[i][0]), layerIndex(keys[j][0])
		if li != lj {
			return li < lj
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "  spans: layer endpoint count total_ms self_ms\n")
	for _, k := range keys {
		a := agg[k]
		fmt.Fprintf(w, "    %-8s %-24s %7d %12.1f %12.1f\n", k[0], k[1], a.count, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// unitOf is a per-layer metric's unit: declared, or read off the name
// of a cluster-only one.
func unitOf(name string) string {
	for _, s := range perLayer {
		if s.name == name {
			return s.unit
		}
	}
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mb_per_round"):
		return "MB"
	case strings.HasSuffix(name, "_sessions"):
		return "count"
	}
	return "ratio"
}

func layerIndex(layer string) int {
	for i, l := range layerOrder {
		if l == layer {
			return i
		}
	}
	return len(layerOrder)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func appendOut(path string, res outcome) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}
