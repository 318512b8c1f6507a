// Package obs is the repository's observability layer: a stdlib-only
// metrics registry of counters, gauges, and duration histograms
// (p50/p99), shared by every layer of the analysis pipeline — codec,
// worker pool, stage runner, artifact store, and the locserve HTTP
// service. It exists so instrumentation is a first-class part of the
// pipeline rather than ad-hoc calls bolted onto one frontend (the
// DINAMITE lesson: profiling infrastructure pays off only when it is a
// layer, not a patch).
//
// Registries are values, not process state: each locserve server and
// each locgate gateway owns one and serves it at /v1/metrics. Layers
// with no registry threaded to them (trace decoding, the worker pool,
// the artifact store) count into Default, which stays nil until a
// binary's main calls EnableDefault; a server or gateway then adopts
// the default as its own, so the binary serves one complete registry.
//
// Design constraints, in order:
//
//  1. Disabled must be (almost) free. Every constructor and method is
//     nil-safe: a nil *Registry returns nil metric handles, and every
//     method on a nil handle is a no-op, so instrumented hot paths pay
//     exactly one nil-check when observability is off.
//  2. Stable names. Metric names are dotted paths ("trace.decode.records",
//     "pipeline.stage.detect") chosen once and listed in README's metric
//     reference; locserve's /v1/metrics regression test pins them.
//  3. No dependencies. Everything here is sync/atomic and time — the
//     repository's no-external-deps rule holds.
//
// Timers are log₂-bucketed duration histograms: Observe files the sample
// into bucket ⌈log₂ ns⌉ (65 buckets cover 1ns..~584y), and quantiles are
// estimated as the geometric midpoint of the bucket containing the
// requested rank — better than 50% relative error is not needed for
// per-stage latency triage, and the whole histogram is a fixed-size
// array of atomics with no locks on the observe path.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// StagePrefix prefixes the timer name of every pipeline stage: the stage
// "detect" records to the timer "pipeline.stage.detect". The prefix is
// defined here (not in internal/pipeline) so formatters and tests can
// select stage timers without importing the runner.
const StagePrefix = "pipeline.stage."

// Registry holds named metrics. The zero value is not ready for use;
// call New. A nil *Registry is the disabled state: all methods are
// nil-safe no-ops returning nil handles.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	timers   map[string]*Timer
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		timers:   make(map[string]*Timer),
	}
}

// defaultReg is the process-wide registry consulted by layers that have
// no explicit registry threaded to them (trace codec, worker pool,
// artifact store). It stays nil — observability disabled — until a
// driver calls EnableDefault or SetDefault.
var defaultReg atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when observability
// is disabled. Callers on hot paths should fetch handles once (at
// construction) rather than per operation.
func Default() *Registry { return defaultReg.Load() }

// EnableDefault installs a fresh registry as the process default if none
// is installed yet and returns the default. It is idempotent and safe
// for concurrent use.
func EnableDefault() *Registry {
	for {
		if r := defaultReg.Load(); r != nil {
			return r
		}
		if defaultReg.CompareAndSwap(nil, New()) {
			return defaultReg.Load()
		}
	}
}

// SetDefault replaces the process-wide registry; nil disables
// observability for layers that consult Default.
func SetDefault(r *Registry) { defaultReg.Store(r) }

// ---- Counter ----

// Counter is a monotonically increasing uint64. A nil *Counter is a
// valid no-op handle.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// ---- Gauge ----

// Gauge is an instantaneous int64 level. A nil *Gauge is a valid no-op
// handle.
type Gauge struct {
	v atomic.Int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the level by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback gauge: fn is evaluated at snapshot
// time. Registering the same name again replaces the callback. No-op on
// a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// ---- Timer (duration histogram) ----

// timerBuckets is the number of log₂ duration buckets: bucket i holds
// samples with ⌈log₂ ns⌉ == i, so bucket 0 is <=1ns and bucket 64 tops
// out the uint64 nanosecond range.
const timerBuckets = 65

// Timer is a duration histogram with lock-free observation and
// bucket-interpolated quantiles. A nil *Timer is a valid no-op handle.
type Timer struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [timerBuckets]atomic.Uint64
}

// Observe files one duration sample.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.sumNS.Add(ns)
	t.buckets[bucketOf(ns)].Add(1)
}

// bucketOf returns ⌈log₂ ns⌉ clamped into the bucket range.
func bucketOf(ns uint64) int {
	b := 0
	for v := ns; v > 1; v >>= 1 {
		b++
	}
	// Round up for non-powers of two so bucket b covers (2^(b-1), 2^b].
	if ns > 1 && ns&(ns-1) != 0 {
		b++
	}
	if b >= timerBuckets {
		b = timerBuckets - 1
	}
	return b
}

// Start begins a sample and returns the function that ends it. The
// returned stop function is never nil, so callers can defer it
// unconditionally; on a nil handle both calls are no-ops.
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	//lint:ignore determinism timer samples feed reporting-only histograms; no analysis result depends on them
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Count returns the number of samples (0 on a nil handle).
func (t *Timer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Sum returns the accumulated duration (0 on a nil handle).
func (t *Timer) Sum() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.sumNS.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) as the geometric
// midpoint of the bucket holding the requested rank. Returns 0 with no
// samples or on a nil handle.
func (t *Timer) Quantile(q float64) time.Duration {
	if t == nil {
		return 0
	}
	total := t.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++ // ceil: the sample at or above the requested rank
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for b := 0; b < timerBuckets; b++ {
		cum += t.buckets[b].Load()
		if cum >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(timerBuckets - 1)
}

// bucketMid returns the geometric midpoint of bucket b's range
// (2^(b-1), 2^b], i.e. 2^(b-0.5) ≈ 2^b / √2; bucket 0 is 1ns.
func bucketMid(b int) time.Duration {
	if b == 0 {
		return time.Duration(1)
	}
	hi := uint64(1) << uint(b)
	// hi / sqrt(2) without importing math: multiply by 0.7071 ≈ 181/256.
	return time.Duration(hi * 181 / 256)
}

// Timer returns the named timer, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// ---- Snapshot ----

// TimerStats is one timer's rendered state.
type TimerStats struct {
	Count uint64 `json:"count"`
	SumNS uint64 `json:"sumNs"`
	P50NS uint64 `json:"p50Ns"`
	P99NS uint64 `json:"p99Ns"`
}

func (t *Timer) stats() TimerStats {
	return TimerStats{
		Count: t.Count(),
		SumNS: uint64(t.Sum()),
		P50NS: uint64(t.Quantile(0.50)),
		P99NS: uint64(t.Quantile(0.99)),
	}
}

// Snapshot is a point-in-time rendering of every metric, the payload of
// locserve's /v1/metrics endpoint. encoding/json sorts map keys, so the
// serialized form is stable for a given metric population.
type Snapshot struct {
	Counters map[string]uint64     `json:"counters"`
	Gauges   map[string]int64      `json:"gauges"`
	Timers   map[string]TimerStats `json:"timers"`
}

// Snapshot renders the registry. On a nil registry it returns an empty
// (but non-nil-mapped) snapshot so serializers need no special case.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
		Timers:   map[string]TimerStats{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, f := range r.funcs {
		funcs[n] = f
	}
	timers := make(map[string]*Timer, len(r.timers))
	for n, t := range r.timers {
		timers[n] = t
	}
	r.mu.RUnlock()
	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Value()
	}
	for n, f := range funcs {
		s.Gauges[n] = f()
	}
	for n, t := range timers {
		s.Timers[n] = t.stats()
	}
	return s
}

// Names returns every registered metric name in sorted order: the
// stability surface locserve's /v1/metrics regression test pins.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.timers))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.funcs {
		names = append(names, n)
	}
	for n := range r.timers {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sortStrings(names)
	return names
}

// sortStrings is an insertion sort: metric populations are tens of
// names, and avoiding package sort keeps obs importable from anywhere
// without widening the dependency surface.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
