package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadRuns reads a -out file: the untraced, correct runs of each
// workload, as metric -> values.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var o outcome
		if err := json.Unmarshal(sc.Bytes(), &o); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if o.Trace || !o.Correct {
			continue
		}
		if out[o.Workload] == nil {
			out[o.Workload] = map[string][]float64{}
		}
		for k, v := range o.Metrics {
			out[o.Workload][k] = append(out[o.Workload][k], v)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every workload × end-to-end metric, both
// sets' medians and quartiles, the change and a verdict against the
// metric's bound:
//
//   - unresolved: a set's spread (quartile distance over median) exceeds
//     the bound, so the two medians cannot be told apart at that bound;
//   - regressed: b's median is worse than a's by more than the bound;
//   - ok otherwise.
//
// It reports whether every pair was ok.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	allOK := true
	fmt.Fprintf(w, "%-15s %-16s %12s %12s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "a.median", "a.iqr", "b.median", "b.iqr", "worse", "spread", "bound", "verdict")
	for _, d := range workloads {
		for _, m := range endToEnd {
			xa, xb := a[d.name][m.name], b[d.name][m.name]
			if len(xa) < 2 || len(xb) < 2 {
				if len(xa)+len(xb) > 0 {
					fmt.Fprintf(w, "%-15s %-16s needs at least two runs on each side\n", d.name, m.name)
					allOK = false
				}
				continue
			}
			q1a, ma, q3a := quartiles(xa)
			q1b, mb, q3b := quartiles(xb)
			worse := (mb - ma) / ma
			if m.better == "higher" {
				worse = -worse
			}
			spread := max((q3a-q1a)/ma, (q3b-q1b)/mb)
			verdict := "ok"
			switch {
			case spread > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				allOK = false
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %12.4f %12.4f %12.4f %+7.1f%% %6.1f%% %6.0f%%  %s\n",
				d.name, m.name, ma, q3a-q1a, mb, q3b-q1b, 100*worse, 100*spread, 100*m.bound, verdict)
		}
	}
	return allOK, nil
}
