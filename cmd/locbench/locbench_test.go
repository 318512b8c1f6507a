package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestShortRunEmitsEveryMetric runs every workload for one round per
// pass at small scale with tracing, and checks that each declared metric
// comes out, with its unit, measured and non-zero where it must be.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "runs.jsonl")
	spans := filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-short", "-trace", "1", "-workdir", dir, "-out", out, "-spans", spans}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("locbench exited %d: %s", code, stderr.String())
	}

	// The result lines: one per workload, the declared per-layer metrics.
	var lines []string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "{") {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(workloads) {
		t.Fatalf("got %d result lines, want one per workload (%d)", len(lines), len(workloads))
	}
	for i, l := range lines {
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workloads[i].name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", workloads[i].name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
				t.Errorf("%s: per-layer %s = %+v, want a value in %s", workloads[i].name, m.name, got, m.unit)
			}
		}
	}

	// The -out records carry every end-to-end metric too; none may be 0.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			t.Fatal(err)
		}
		for _, m := range endToEnd {
			if v := o.Metrics[m.name]; !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", o.Workload, m.name, v)
			}
		}
	}
	if n != len(workloads) {
		t.Errorf("-out holds %d records, want %d", n, len(workloads))
	}
	if b, err := os.ReadFile(spans); err != nil || len(b) < 100 {
		t.Errorf("spans file: %d bytes, err %v", len(b), err)
	}
}

// TestCorruptReferenceTripsChecks corrupts one reference of each
// workload, a session's snapshot or the fleet view; the round must then
// fail.
func TestCorruptReferenceTripsChecks(t *testing.T) {
	flip := func(b []byte) { b[len(b)/2] ^= 1 }
	corrupt := map[string]func(w workload){
		"snapshot": func(w workload) { flip(w.inputs()[0].ref) },
		"fleet": func(w workload) {
			switch w := w.(type) {
			case *inproc:
				flip(w.fleetRef)
			case *clusterIngest:
				flip(w.fleetRef)
			case *clusterQuery:
				w.clusters.Clusters[0].Weight++
			case *clusterMixed:
				flip(w.fleetRef)
			}
		},
	}
	for _, d := range workloads {
		for what, fn := range corrupt {
			t.Run(d.name+"/"+what, func(t *testing.T) {
				t.Parallel()
				e := &env{seed: 1, short: true, reg: obs.New(), workdir: t.TempDir()}
				w := d.make(e)
				defer w.close()
				if err := w.setup(e); err != nil {
					t.Fatal(err)
				}
				if err := w.prepare(e); err != nil {
					t.Fatal(err)
				}
				fn(w)
				err := w.round(e, 1, newRecorder())
				if err == nil {
					t.Fatal("round passed against a corrupted reference")
				}
				if !strings.Contains(err.Error(), "differs") {
					t.Fatalf("round failed, but not on the corrupted reference: %v", err)
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale []float64) string {
		p := filepath.Join(dir, name)
		var b bytes.Buffer
		for _, s := range scale {
			m := map[string]float64{}
			for _, spec := range endToEnd {
				m[spec.name] = 100 * s
			}
			line, _ := json.Marshal(outcome{Workload: "cluster-query", Correct: true, Metrics: m})
			b.Write(append(line, '\n'))
		}
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.02, 0.98}
	a := write("a", steady)
	for _, c := range []struct {
		name  string
		scale []float64
		want  string
	}{
		{"same", steady, "ok"},
		{"slower", []float64{1.5, 1.51, 1.49, 1.5, 1.52, 1.48}, "regressed"},
		{"noisy", []float64{0.5, 1.5, 0.7, 1.3, 1, 0.6}, "unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(a, write(c.name, c.scale), &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "ingest_p50_ms") || !strings.Contains(out.String(), " "+c.want+"\n") {
			t.Errorf("%s: want a %q verdict for ingest_p50_ms:\n%s", c.name, c.want, out.String())
		}
		if ok != (c.want == "ok") {
			t.Errorf("%s: compare reported ok=%v", c.name, ok)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json at the repository root
// to the metric and workload tables here.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, want %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != w.bound) {
				t.Errorf("%s %d: %+v, want %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
