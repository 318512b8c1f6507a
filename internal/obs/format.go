package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteStageTable renders the per-stage timing table: every timer under
// StagePrefix, sorted by name, with sample count, total, p50, and p99.
// It is the payload of `locstats -stage-timing` and `repro
// -stage-timing`. A preregistered stage that never ran shows as a
// zero-sample row, so a command that silently stops routing a phase
// through the stage runner is visible here.
func WriteStageTable(w io.Writer, r *Registry) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap.Timers))
	for n := range snap.Timers {
		if strings.HasPrefix(n, StagePrefix) {
			names = append(names, n)
		}
	}
	sortStrings(names)
	if _, err := fmt.Fprintf(w, "%-12s %8s %12s %12s %12s\n",
		"stage", "samples", "total", "p50", "p99"); err != nil {
		return err
	}
	for _, n := range names {
		ts := snap.Timers[n]
		if _, err := fmt.Fprintf(w, "%-12s %8d %12s %12s %12s\n",
			strings.TrimPrefix(n, StagePrefix), ts.Count,
			formatDur(ts.SumNS), formatDur(ts.P50NS), formatDur(ts.P99NS)); err != nil {
			return err
		}
	}
	return nil
}

// formatDur renders nanoseconds compactly (time.Duration's String with
// sub-millisecond noise rounded away above 1ms).
func formatDur(ns uint64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	}
	return d.String()
}
