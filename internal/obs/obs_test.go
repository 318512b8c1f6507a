package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety is the disabled-mode contract: a nil registry returns
// nil handles and every operation on them is a no-op. Hot paths rely on
// this to pay one nil-check when observability is off.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry returned a counter")
	}
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	r.GaugeFunc("z", func() int64 { return 1 })
	tm := r.Timer("t")
	tm.Observe(time.Second)
	stop := tm.Start()
	stop()
	if tm.Count() != 0 || tm.Sum() != 0 || tm.Quantile(0.5) != 0 {
		t.Fatal("nil timer recorded samples")
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry has names %v", names)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Timers) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("a.count")
	c.Add(2)
	c.Inc()
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if r.Counter("a.count") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("a.level")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	r.GaugeFunc("a.func", func() int64 { return 42 })
	snap := r.Snapshot()
	if snap.Counters["a.count"] != 3 || snap.Gauges["a.level"] != 7 || snap.Gauges["a.func"] != 42 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestTimerQuantiles(t *testing.T) {
	r := New()
	tm := r.Timer("t")
	// 99 samples near 1ms, one near 1s: p50 must land in the millisecond
	// decade, p99 within a factor of ~2 of a second.
	for i := 0; i < 99; i++ {
		tm.Observe(time.Millisecond)
	}
	tm.Observe(time.Second)
	if tm.Count() != 100 {
		t.Fatalf("count = %d", tm.Count())
	}
	p50 := tm.Quantile(0.50)
	if p50 < 500*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	p99 := tm.Quantile(0.99)
	if p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want <=~1ms bucket (rank 99 of 100)", p99)
	}
	p999 := tm.Quantile(0.9999)
	if p999 < 500*time.Millisecond || p999 > 2*time.Second {
		t.Errorf("p99.99 = %v, want ~1s", p999)
	}
	if s := tm.Sum(); s < 1099*time.Millisecond || s > 1101*time.Millisecond {
		t.Errorf("sum = %v", s)
	}
}

func TestTimerStart(t *testing.T) {
	r := New()
	tm := r.Timer("t")
	stop := tm.Start()
	stop()
	if tm.Count() != 1 {
		t.Fatalf("count = %d, want 1", tm.Count())
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1 << 40, 40}, {(1 << 40) + 1, 41},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	r := New()
	r.Counter("z")
	r.Gauge("a")
	r.Timer("m")
	r.GaugeFunc("b", func() int64 { return 0 })
	got := r.Names()
	want := []string{"a", "b", "m", "z"}
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

// TestConcurrentUse hammers one registry from many goroutines; run under
// -race this is the data-race proof for the lock-free observe paths.
func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Timer("t").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Timer("t").Count(); got != 8000 {
		t.Fatalf("timer count = %d, want 8000", got)
	}
}

func TestDefaultRegistry(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("default not cleared")
	}
	r1 := EnableDefault()
	if r1 == nil || Default() != r1 {
		t.Fatal("EnableDefault did not install")
	}
	if r2 := EnableDefault(); r2 != r1 {
		t.Fatal("EnableDefault not idempotent")
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	r := New()
	r.Counter("b").Add(1)
	r.Counter("a").Add(2)
	r.Timer("t").Observe(time.Millisecond)
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot JSON unstable:\n%s\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), `"a":2`) {
		t.Fatalf("snapshot JSON missing counter: %s", b1)
	}
}

func TestWriteStageTable(t *testing.T) {
	r := New()
	r.Timer(StagePrefix + "detect").Observe(3 * time.Millisecond)
	r.Timer(StagePrefix + "sequitur") // registered, zero samples
	r.Timer("not.a.stage").Observe(time.Second)
	var buf bytes.Buffer
	if err := WriteStageTable(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "detect") || !strings.Contains(out, "sequitur") {
		t.Fatalf("table missing stages:\n%s", out)
	}
	if strings.Contains(out, "not.a.stage") {
		t.Fatalf("table leaked non-stage timer:\n%s", out)
	}
	// The zero-sample stage must be visible as such.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "sequitur") && !strings.Contains(line, " 0 ") {
			t.Fatalf("zero-sample stage not reported as 0:\n%s", out)
		}
	}
}
