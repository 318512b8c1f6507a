package hotstream

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/abstract"
	"repro/internal/sequitur"
	"repro/internal/workload"
)

func sym(s string) []uint64 {
	out := make([]uint64, len(s))
	for i := range s {
		out[i] = uint64(s[i]-'a') + 1
	}
	return out
}

func dagOf(t *testing.T, seq []uint64) *sequitur.DAG {
	t.Helper()
	g := sequitur.New()
	g.AppendAll(seq)
	return sequitur.NewDAG(g, 100)
}

// Figure 2, sequence 2: "abcabcdefabcgabcfabcdabc". The paper works the
// regularity metrics of subsequence abc: magnitude 18, frequency 6,
// spatial regularity 3, temporal regularity 1.2.
const figure2Seq2 = "abcabcdefabcgabcfabcdabc"

func TestPaperFigure2Metrics(t *testing.T) {
	abc := &Stream{Seq: sym("abc")}
	m := Measure(sym(figure2Seq2), []*Stream{abc}, DefaultConfig(1), 0, false)
	if len(m.Streams) != 1 {
		t.Fatalf("streams = %d, want 1", len(m.Streams))
	}
	s := m.Streams[0]
	if s.Freq != 6 {
		t.Errorf("regularity frequency = %d, want 6", s.Freq)
	}
	if s.SpatialRegularity() != 3 {
		t.Errorf("spatial regularity = %d, want 3", s.SpatialRegularity())
	}
	if s.Magnitude() != 18 {
		t.Errorf("regularity magnitude = %d, want 18", s.Magnitude())
	}
	if got := s.TemporalRegularity(); got != 1.2 {
		t.Errorf("temporal regularity = %v, want 1.2", got)
	}
	if m.CoveredRefs != 18 || m.TotalRefs != 24 {
		t.Errorf("covered=%d total=%d", m.CoveredRefs, m.TotalRefs)
	}
}

func TestDetectFindsABC(t *testing.T) {
	d := dagOf(t, sym(figure2Seq2))
	streams := Detect(d, Config{MinLen: 2, MaxLen: 100, Heat: 18})
	found := false
	for _, s := range streams {
		if reflect.DeepEqual(s.Seq, sym("abc")) {
			found = true
		}
		if len(s.Seq) > 3 && reflect.DeepEqual(s.Seq[:3], sym("abc")) {
			t.Errorf("non-minimal stream %v reported alongside hot prefix abc", s.Seq)
		}
	}
	if !found {
		t.Fatalf("abc not detected; streams: %v", streamSeqs(streams))
	}
}

func streamSeqs(ss []*Stream) [][]uint64 {
	out := make([][]uint64, len(ss))
	for i, s := range ss {
		out[i] = s.Seq
	}
	return out
}

func TestDetectRespectsMaxLen(t *testing.T) {
	// A long period-8 sequence repeated many times: with MaxLen 4 no
	// stream longer than 4 may be reported.
	var in []uint64
	for i := 0; i < 50; i++ {
		in = append(in, sym("abcdefgh")...)
	}
	d := dagOf(t, in)
	streams := Detect(d, Config{MinLen: 2, MaxLen: 4, Heat: 8})
	if len(streams) == 0 {
		t.Fatal("no streams detected")
	}
	for _, s := range streams {
		if len(s.Seq) > 4 {
			t.Errorf("stream %v exceeds MaxLen", s.Seq)
		}
	}
}

func TestDetectMinimality(t *testing.T) {
	// "ababab...": hot streams must be minimal prefixes; with a low heat
	// threshold, "ab" (or "ba") suffices, so no reported stream may have
	// another as proper prefix.
	var in []uint64
	for i := 0; i < 100; i++ {
		in = append(in, sym("ab")...)
	}
	d := dagOf(t, in)
	streams := Detect(d, Config{MinLen: 2, MaxLen: 100, Heat: 20})
	tr := newTrie()
	for i, s := range streams {
		if tr.hasHotPrefix(s.Seq) {
			t.Errorf("stream %v has a hot proper prefix", s.Seq)
		}
		tr.insert(s.Seq, i)
	}
}

func TestMeasureIndependentCounting(t *testing.T) {
	// Both "ab" and "abc" registered: occurrences are counted per
	// stream independently (the paper's Figure 2 quantifies ab, bc and
	// abc simultaneously), so both survive with frequency 2 on
	// "abcabc"; coverage is the union of spans, not double counted.
	ab := &Stream{Seq: sym("ab")}
	abc := &Stream{Seq: sym("abc")}
	m := Measure(sym("abcabc"), []*Stream{ab, abc}, DefaultConfig(1), 0, false)
	if len(m.Streams) != 2 {
		t.Fatalf("streams = %v", streamSeqs(m.Streams))
	}
	for _, s := range m.Streams {
		if s.Freq != 2 {
			t.Errorf("freq(%v) = %d, want 2", s.Seq, s.Freq)
		}
	}
	if m.CoveredRefs != 6 || m.ColdRefs != 0 {
		t.Errorf("covered=%d cold=%d", m.CoveredRefs, m.ColdRefs)
	}
}

func TestMeasureFigure2AllSubsequences(t *testing.T) {
	// Paper Figure 2, sequence 2: ab, bc and abc are all regular with
	// frequency 6.
	ab := &Stream{Seq: sym("ab")}
	bc := &Stream{Seq: sym("bc")}
	abc := &Stream{Seq: sym("abc")}
	m := Measure(sym(figure2Seq2), []*Stream{ab, bc, abc}, DefaultConfig(1), 0, false)
	if len(m.Streams) != 3 {
		t.Fatalf("streams = %v", streamSeqs(m.Streams))
	}
	for _, s := range m.Streams {
		if s.Freq != 6 {
			t.Errorf("freq(%v) = %d, want 6", s.Seq, s.Freq)
		}
	}
}

func TestMeasureNonOverlapping(t *testing.T) {
	// "aaaa" with stream "aa": exactly 2 non-overlapping occurrences.
	aa := &Stream{Seq: sym("aa")}
	m := Measure(sym("aaaa"), []*Stream{aa}, DefaultConfig(1), 0, false)
	if len(m.Streams) != 1 || m.Streams[0].Freq != 2 {
		t.Fatalf("measurement = %+v", m.Streams)
	}
}

func TestMeasureDropsSingletons(t *testing.T) {
	// A stream seen once does not exhibit regularity and must be
	// dropped, with its references returned to the cold pool.
	xyz := &Stream{Seq: sym("xyz")}
	m := Measure(sym("xyzabc"), []*Stream{xyz}, DefaultConfig(1), 0, false)
	if len(m.Streams) != 0 {
		t.Fatalf("streams = %v", streamSeqs(m.Streams))
	}
	if m.CoveredRefs != 0 || m.ColdRefs != 6 {
		t.Errorf("covered=%d cold=%d", m.CoveredRefs, m.ColdRefs)
	}
}

func TestMeasureReducedTrace(t *testing.T) {
	// §3.2: the reduced trace encodes hot-stream occurrences as single
	// symbols and elides cold references.
	abc := &Stream{Seq: sym("abc")}
	de := &Stream{Seq: sym("de")}
	in := sym("abcxdeabcdeyz")
	m := Measure(in, []*Stream{abc, de}, DefaultConfig(1), 1000, true)
	if len(m.Streams) != 2 {
		t.Fatalf("streams = %v", streamSeqs(m.Streams))
	}
	want := []uint64{1000, 1001, 1000, 1001}
	if !reflect.DeepEqual(m.Reduced, want) {
		t.Errorf("reduced = %v, want %v", m.Reduced, want)
	}
	if m.ColdRefs != 3 { // x, y, z
		t.Errorf("cold = %d, want 3", m.ColdRefs)
	}
}

func TestMeasureReducedRenumbersAfterDrop(t *testing.T) {
	// First stream never matches twice; symbols must renumber densely.
	never := &Stream{Seq: sym("qq")}
	ab := &Stream{Seq: sym("ab")}
	m := Measure(sym("abab"), []*Stream{never, ab}, DefaultConfig(1), 500, true)
	if len(m.Streams) != 1 || m.Streams[0].ID != 0 {
		t.Fatalf("streams = %+v", m.Streams)
	}
	if !reflect.DeepEqual(m.Reduced, []uint64{500, 500}) {
		t.Errorf("reduced = %v", m.Reduced)
	}
}

func TestMeasureLongInputWindowing(t *testing.T) {
	// Exercise the sliding-window consume path with input far larger
	// than the window.
	var in []uint64
	for i := 0; i < 5000; i++ {
		in = append(in, sym("abc")...)
		in = append(in, uint64(100+i%7))
	}
	abc := &Stream{Seq: sym("abc")}
	m := Measure(in, []*Stream{abc}, DefaultConfig(1), 0, false)
	if m.Streams[0].Freq != 5000 {
		t.Errorf("freq = %d, want 5000", m.Streams[0].Freq)
	}
	if m.TotalRefs != uint64(len(in)) {
		t.Errorf("total = %d, want %d", m.TotalRefs, len(in))
	}
	if m.CoveredRefs != 15000 {
		t.Errorf("covered = %d, want 15000", m.CoveredRefs)
	}
}

func TestCoverageEmpty(t *testing.T) {
	m := &Measurement{}
	if m.Coverage() != 0 {
		t.Error("empty measurement coverage must be 0")
	}
}

func TestTemporalRegularitySingleOccurrence(t *testing.T) {
	s := &Stream{Seq: sym("ab"), Freq: 1}
	if s.TemporalRegularity() != 0 {
		t.Error("single occurrence must report temporal regularity 0")
	}
}

func TestFindThresholdHighRegularity(t *testing.T) {
	// Extremely regular input: 500 repetitions of a 6-symbol motif over
	// 6 addresses. unit = 3000/6 = 500. Coverage at multiple 1 is ~100%;
	// the search should push the threshold well above 1.
	var in []uint64
	for i := 0; i < 500; i++ {
		in = append(in, sym("abcdef")...)
	}
	d := dagOf(t, in)
	th, meas := FindThreshold(d, in, uint64(len(in)), 6, SearchConfig{})
	if th.Coverage < 0.9 {
		t.Fatalf("coverage = %v, want >= 0.9", th.Coverage)
	}
	if th.Multiple < 2 {
		t.Errorf("multiple = %d, want >= 2 for highly regular input", th.Multiple)
	}
	if len(meas.Streams) == 0 {
		t.Error("no hot streams at threshold")
	}
	if th.Unit != 500 {
		t.Errorf("unit = %v, want 500", th.Unit)
	}
}

func TestFindThresholdIrregularInput(t *testing.T) {
	// Random input over a large alphabet: little regularity, so even
	// multiple 1 may miss 90%; the search must still return multiple 1.
	rng := rand.New(rand.NewSource(5))
	in := make([]uint64, 3000)
	for i := range in {
		in[i] = uint64(rng.Intn(1500)) + 1
	}
	d := dagOf(t, in)
	th, _ := FindThreshold(d, in, uint64(len(in)), 1500, SearchConfig{})
	if th.Multiple != 1 && th.Coverage < 0.9 {
		t.Errorf("threshold = %+v: multiple > 1 without meeting coverage", th)
	}
}

// TestFindThresholdReturnsFinalMeasurement pins the contract callers rely
// on to skip a repeat probe: the measurement FindThreshold returns is
// exactly a fresh Detect plus Measure at the returned heat, on each of
// the search's three ways out. The inputs are walked through their
// grammar, as the online engine does, so the search also expands its
// source once.
func TestFindThresholdReturnsFinalMeasurement(t *testing.T) {
	buf, err := workload.Generate("boxsim", 30_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	regular := abstract.New(abstract.BirthID).Abstract(buf).Names
	addrs := buf.Stats().Addresses
	rng := rand.New(rand.NewSource(5))
	irregular := make([]uint64, 3000)
	for i := range irregular {
		irregular[i] = uint64(rng.Intn(1500)) + 1
	}
	for _, c := range []struct {
		name  string
		in    []uint64
		addrs uint64
		cfg   SearchConfig
		// branch checks that the search left the way the case is for.
		branch func(Threshold) bool
	}{
		{"multiple 1 misses the target", irregular, 1500, SearchConfig{},
			func(th Threshold) bool { return th.Multiple == 1 && th.Coverage < 0.9 }},
		{"never fails below the cap", regular, addrs, SearchConfig{MaxMultiple: 4},
			func(th Threshold) bool { return th.Multiple == 4 }},
		{"binary-searched boundary", regular, addrs, SearchConfig{},
			func(th Threshold) bool { return th.Multiple > 8 && th.Multiple < 16 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := sequitur.New()
			g.AppendAll(c.in)
			d := sequitur.NewDAG(g, 100)
			th, got := FindThreshold(d, c.in, uint64(len(c.in)), c.addrs, c.cfg)
			if !c.branch(th) {
				t.Fatalf("threshold %+v did not take this branch", th)
			}
			cfg := Config{MinLen: 2, MaxLen: 100, Heat: th.Heat}
			want := Measure(c.in, Detect(d, cfg), cfg, 0, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("returned measurement (%d streams, %d covered) differs from a fresh one at heat %d (%d streams, %d covered)",
					len(got.Streams), got.CoveredRefs, th.Heat, len(want.Streams), want.CoveredRefs)
			}
			if th.Coverage != want.Coverage() {
				t.Errorf("threshold coverage %v, measured %v", th.Coverage, want.Coverage())
			}
		})
	}
}

func TestCoverageVanishesAtExtremeHeat(t *testing.T) {
	// Union coverage is not strictly monotone in the heat threshold
	// (longer minimal streams can span more noise), but it must
	// eventually collapse: past the hottest stream's magnitude there
	// are no hot streams at all.
	var in []uint64
	for i := 0; i < 200; i++ {
		in = append(in, sym("abcd")...)
		in = append(in, uint64(50+i%11))
	}
	d := dagOf(t, in)
	c := Config{MinLen: 2, MaxLen: 100, Heat: uint64(len(in)) * 10}
	streams := Detect(d, c)
	if len(streams) != 0 {
		t.Errorf("streams at impossible heat: %v", streamSeqs(streams))
	}
	meas := Measure(in, streams, c, 0, false)
	if meas.Coverage() != 0 {
		t.Errorf("coverage = %v, want 0", meas.Coverage())
	}
}

func TestTrieLongestMatch(t *testing.T) {
	tr := newTrie()
	tr.insert(sym("ab"), 0)
	tr.insert(sym("abcd"), 1)
	id, n := tr.longestMatch(sym("abcdz"))
	if id != 1 || n != 4 {
		t.Errorf("longestMatch = (%d,%d), want (1,4)", id, n)
	}
	id, n = tr.longestMatch(sym("abz"))
	if id != 0 || n != 2 {
		t.Errorf("longestMatch = (%d,%d), want (0,2)", id, n)
	}
	id, _ = tr.longestMatch(sym("zz"))
	if id != -1 {
		t.Errorf("longestMatch on miss = %d, want -1", id)
	}
}

func TestDetectOnRealisticMixedTrace(t *testing.T) {
	// A trace mixing three motifs with noise; detection plus measurement
	// should attribute most coverage to the motifs.
	rng := rand.New(rand.NewSource(11))
	var in []uint64
	motifs := [][]uint64{sym("abcde"), sym("fghij"), sym("klm")}
	for i := 0; i < 1000; i++ {
		in = append(in, motifs[rng.Intn(3)]...)
		if rng.Intn(4) == 0 {
			in = append(in, uint64(1000+rng.Intn(50)))
		}
	}
	d := dagOf(t, in)
	cfg := Config{MinLen: 2, MaxLen: 100, Heat: 100}
	streams := Detect(d, cfg)
	meas := Measure(in, streams, cfg, 0, false)
	if meas.Coverage() < 0.7 {
		t.Errorf("coverage = %v, want >= 0.7 on motif-dominated trace", meas.Coverage())
	}
	// Magnitude identity: heat == len x freq for measured streams.
	for _, s := range meas.Streams {
		if s.Magnitude() != uint64(len(s.Seq))*s.Freq {
			t.Errorf("magnitude identity violated for %v", s)
		}
	}
}

func BenchmarkDetect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var in []uint64
	motifs := [][]uint64{sym("abcde"), sym("fghij"), sym("klm")}
	for i := 0; i < 20000; i++ {
		in = append(in, motifs[rng.Intn(3)]...)
	}
	g := sequitur.New()
	g.AppendAll(in)
	d := sequitur.NewDAG(g, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Detect(d, Config{MinLen: 2, MaxLen: 100, Heat: 500})
	}
}

func BenchmarkMeasure(b *testing.B) {
	var in []uint64
	for i := 0; i < 50000; i++ {
		in = append(in, sym("abcde")...)
	}
	streams := []*Stream{{Seq: sym("abcde")}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Measure(in, streams, DefaultConfig(1), 0, false)
	}
}

// TestConfigAndSearchConfigShareWindow pins that detection (Config) and
// the threshold search (SearchConfig) bound streams to the same window:
// the batch and online drivers hand both the same fields, so any
// disagreement here splits their results.
func TestConfigAndSearchConfigShareWindow(t *testing.T) {
	cases := []struct {
		minLen, maxLen   int
		wantMin, wantMax int
	}{
		{0, 0, 2, 100},
		{2, 0, 2, 100},
		{-5, -1, 2, 100},
		{0, 1, 2, 100},
		{2, 100, 2, 100},
		{150, 0, 150, 150},
		{150, 80, 150, 150},
		{150, 100, 150, 150},
		{7, 7, 7, 7},
		{3, 5000, 3, 5000},
	}
	for _, tc := range cases {
		c := Config{MinLen: tc.minLen, MaxLen: tc.maxLen}
		c.normalize()
		s := SearchConfig{MinLen: tc.minLen, MaxLen: tc.maxLen}.Normalized()
		if c.MinLen != tc.wantMin || c.MaxLen != tc.wantMax {
			t.Errorf("Config [%d, %d] -> [%d, %d], want [%d, %d]",
				tc.minLen, tc.maxLen, c.MinLen, c.MaxLen, tc.wantMin, tc.wantMax)
		}
		if s.MinLen != tc.wantMin || s.MaxLen != tc.wantMax {
			t.Errorf("SearchConfig [%d, %d] -> [%d, %d], want [%d, %d]",
				tc.minLen, tc.maxLen, s.MinLen, s.MaxLen, tc.wantMin, tc.wantMax)
		}
	}
	for _, target := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		if got := (SearchConfig{CoverageTarget: target}).Normalized().CoverageTarget; got != 0.90 {
			t.Errorf("coverage target %v -> %v, want 0.90", target, got)
		}
	}
	if got := (SearchConfig{CoverageTarget: 0.5}).Normalized().CoverageTarget; got != 0.5 {
		t.Errorf("coverage target 0.5 -> %v, want it kept", got)
	}
}
