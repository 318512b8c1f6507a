package hotstream

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/abstract"
	"repro/internal/sequitur"
	"repro/internal/workload"
)

// requireReplayMatches measures streams over seq, replays the counts onto
// a second copy of the same streams, and requires the replay to equal
// the measurement, dropped streams included. It returns how many
// streams the measurement dropped.
func requireReplayMatches(t *testing.T, name string, seq []uint64, streams, again []*Stream) int {
	t.Helper()
	want := Measure(seq, streams, DefaultConfig(1), 0, false)
	got, ok := Replay(again, want.Counts())
	if !ok {
		t.Fatalf("%s: Replay refused its own measurement's counts", name)
	}
	if got.TotalRefs != want.TotalRefs || got.CoveredRefs != want.CoveredRefs || got.ColdRefs != want.ColdRefs {
		t.Fatalf("%s: total/covered/cold refs %d/%d/%d, measured %d/%d/%d", name,
			got.TotalRefs, got.CoveredRefs, got.ColdRefs, want.TotalRefs, want.CoveredRefs, want.ColdRefs)
	}
	if !reflect.DeepEqual(got.Streams, want.Streams) {
		t.Fatalf("%s: replayed %d streams, measured %d (first difference at %d)",
			name, len(got.Streams), len(want.Streams), firstStreamDiff(got.Streams, want.Streams))
	}
	if !reflect.DeepEqual(again, streams) {
		t.Fatalf("%s: the replayed input differs from the measured one (first difference at %d)",
			name, firstStreamDiff(again, streams))
	}
	return len(streams) - len(want.Streams)
}

// TestReplayMatchesMeasure: replaying a measurement's counts onto the
// streams Detect returns again yields the measurement itself — the same
// frequencies, gaps, drops, dense IDs and coverage — on every workload
// family across the threshold search's range of heats, and on a
// hand-built set whose streams are dropped for being seen once or never.
func TestReplayMatchesMeasure(t *testing.T) {
	drops := requireReplayMatches(t, "hand-built", sym("abxyzabqab"),
		[]*Stream{{Seq: sym("qq")}, {Seq: sym("ab")}, {Seq: sym("xyz")}},
		[]*Stream{{Seq: sym("qq")}, {Seq: sym("ab")}, {Seq: sym("xyz")}})
	if drops != 2 {
		t.Fatalf("hand-built set dropped %d streams, want 2", drops)
	}
	for _, bench := range workload.Names() {
		buf, err := workload.Generate(bench, 30_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		names := abstract.New(abstract.BirthID).Abstract(buf).Names
		g := sequitur.New()
		g.AppendAll(names)
		d := sequitur.NewDAG(g, 100)
		for _, heat := range []uint64{2, 17, 150, 2000} {
			cfg := DefaultConfig(heat)
			requireReplayMatches(t, bench, names, Detect(d, cfg), Detect(d, cfg))
		}
	}
}

// countsRecord encodes a Counts record field by field.
func countsRecord(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestReplayRefusesMismatch: a record that does not fit the streams it is
// replayed onto is refused, and the streams are left unmeasured.
func TestReplayRefusesMismatch(t *testing.T) {
	seqs := [][]uint64{sym("qq"), sym("ab"), sym("xyz")}
	fresh := func(n int) []*Stream {
		out := make([]*Stream, n)
		for i := range out {
			out[i] = &Stream{ID: i, Seq: seqs[i]}
		}
		return out
	}
	// Over "abxyzabqab": qq never, ab three times with gaps 3 and 1,
	// xyz once; 6 of 10 references covered.
	valid := countsRecord(3, 10, 6, 0, 3, 4, 1)
	if got := Measure(sym("abxyzabqab"), fresh(3), DefaultConfig(1), 0, false).Counts(); !bytes.Equal(got, valid) {
		t.Fatalf("Counts = %v, want %v", got, valid)
	}
	if m, ok := Replay(fresh(3), valid); !ok || len(m.Streams) != 1 || m.Streams[0].GapSum != 4 {
		t.Fatalf("the valid record was not replayed: %+v, %v", m, ok)
	}
	for _, tc := range []struct {
		name    string
		streams int
		rec     []byte
	}{
		{"fewer streams", 2, valid},
		{"more streams", 3, countsRecord(4, 10, 6, 0, 3, 4, 1, 0)},
		{"count header only", 3, countsRecord(2, 10, 6, 0, 3, 4, 1)},
		{"truncated", 3, valid[:len(valid)-1]},
		{"trailing byte", 3, append(append([]byte{}, valid...), 0)},
		{"missing gap", 3, countsRecord(3, 10, 6, 0, 3, 1)},
		{"covered above total", 3, countsRecord(3, 10, 11, 0, 3, 4, 1)},
		{"overlong uvarint", 3, append([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, valid[1:]...)},
		{"empty", 3, nil},
	} {
		streams := fresh(tc.streams)
		if m, ok := Replay(streams, tc.rec); ok {
			t.Errorf("%s: replayed %d streams from a record that does not match", tc.name, len(m.Streams))
		}
		if !reflect.DeepEqual(streams, fresh(tc.streams)) {
			t.Errorf("%s: a refused record changed the streams", tc.name)
		}
	}
}
