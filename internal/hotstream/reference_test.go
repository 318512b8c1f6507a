package hotstream

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/abstract"
	"repro/internal/sequitur"
	"repro/internal/workload"
)

// naiveCount is the obvious quadratic implementation of §2.2's regularity
// frequency: maximal non-overlapping occurrences, greedy from the left.
func naiveCount(haystack, needle []uint64) (freq uint64, gaps uint64) {
	var lastEnd = -1
	var prevEnd = -1
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if lastEnd > i-1 {
			continue // overlaps previous occurrence
		}
		match := true
		for j, v := range needle {
			if haystack[i+j] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		if prevEnd >= 0 {
			gaps += uint64(i - prevEnd)
		}
		freq++
		lastEnd = i + len(needle) - 1
		prevEnd = i + len(needle)
	}
	return
}

// TestMeasureMatchesNaiveCounting cross-checks the Aho-Corasick pass
// against the quadratic model on random inputs and random pattern sets.
func TestMeasureMatchesNaiveCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 200 + rng.Intn(800)
		alpha := 2 + rng.Intn(5)
		hay := make([]uint64, n)
		for i := range hay {
			hay[i] = uint64(rng.Intn(alpha)) + 1
		}
		var streams []*Stream
		for k := 0; k < 5; k++ {
			l := 2 + rng.Intn(4)
			start := rng.Intn(n - l)
			seq := make([]uint64, l)
			copy(seq, hay[start:start+l])
			dup := false
			for _, s := range streams {
				if len(s.Seq) == len(seq) {
					same := true
					for i := range seq {
						if s.Seq[i] != seq[i] {
							same = false
							break
						}
					}
					if same {
						dup = true
						break
					}
				}
			}
			if !dup {
				streams = append(streams, &Stream{Seq: seq})
			}
		}
		m := Measure(hay, streams, DefaultConfig(1), 0, false)
		for _, s := range m.Streams {
			wantFreq, wantGaps := naiveCount(hay, s.Seq)
			if s.Freq != wantFreq {
				t.Fatalf("trial %d: stream %v freq %d, naive %d", trial, s.Seq, s.Freq, wantFreq)
			}
			if s.GapSum != wantGaps {
				t.Fatalf("trial %d: stream %v gaps %d, naive %d", trial, s.Seq, s.GapSum, wantGaps)
			}
		}
		// Streams dropped by Measure must have naive freq < 2.
		kept := make(map[int]bool)
		for _, s := range m.Streams {
			kept[s.ID] = true
		}
		if len(m.Streams) > len(streams) {
			t.Fatalf("trial %d: gained streams", trial)
		}
	}
}

// TestCoverageMatchesNaiveUnion cross-checks union coverage against a
// position-bitmap model.
func TestCoverageMatchesNaiveUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 300 + rng.Intn(500)
		hay := make([]uint64, n)
		for i := range hay {
			hay[i] = uint64(rng.Intn(4)) + 1
		}
		streams := []*Stream{
			{Seq: []uint64{1, 2}},
			{Seq: []uint64{2, 3, 1}},
			{Seq: []uint64{4, 4}},
		}
		m := Measure(hay, streams, DefaultConfig(1), 0, false)
		// Naive: mark every position inside any occurrence (overlapping
		// or not) of any KEPT stream.
		covered := make([]bool, n)
		for _, s := range m.Streams {
			for i := 0; i+len(s.Seq) <= n; i++ {
				match := true
				for j, v := range s.Seq {
					if hay[i+j] != v {
						match = false
						break
					}
				}
				if match {
					for j := range s.Seq {
						covered[i+j] = true
					}
				}
			}
		}
		var want uint64
		for _, c := range covered {
			if c {
				want++
			}
		}
		if m.CoveredRefs != want {
			t.Fatalf("trial %d: covered %d, naive %d", trial, m.CoveredRefs, want)
		}
	}
}

// candidate accumulates occurrence mass for one distinct subsequence.
type candidate struct {
	seq  []uint64
	freq uint64
}

// referenceCandidates is detectReference's window enumeration: every
// distinct boundary-crossing window with its summed occurrence mass,
// keyed by its bytes.
func referenceCandidates(d *sequitur.DAG, cfg Config) map[string]*candidate {
	cands := make(map[string]*candidate)
	var keyBuf []byte

	addWindow := func(win []uint64, occ uint64) {
		keyBuf = keyBuf[:0]
		for _, v := range win {
			keyBuf = append(keyBuf,
				byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		if c, ok := cands[string(keyBuf)]; ok {
			c.freq += occ
			return
		}
		seq := make([]uint64, len(win))
		copy(seq, win)
		cands[string(keyBuf)] = &candidate{seq: seq, freq: occ}
	}

	for id := range d.Len() {
		occ := d.Occ(id)
		if occ == 0 {
			continue
		}
		// Minimal hot length at this site: heat here is len x occ, so a
		// stream shorter than ceil(H/occ) cannot be hot on this rule's
		// occurrences alone.
		target := int((cfg.Heat + occ - 1) / occ)
		if target < cfg.MinLen {
			target = cfg.MinLen
		}
		if target > cfg.MaxLen {
			continue // even a max-length stream falls short of H here
		}
		k := d.RHSLen(id)
		for b := 0; b+1 < k; b++ {
			// Left context: up to target-1 trailing terminals of
			// element b's expansion.
			var left []uint64
			if ref, isRule := d.Elem(id, b); isRule {
				left = d.Suffix(int(ref), target-1)
			} else {
				left = []uint64{ref}
			}
			if len(left) > target-1 {
				left = left[len(left)-(target-1):]
			}
			// Right context: prefixes of elements b+1.. until target-1
			// terminals are available (a window starting at the last
			// left position needs target-1 more).
			right := make([]uint64, 0, target-1)
			for j := b + 1; j < k && len(right) < target-1; j++ {
				if ref, isRule := d.Elem(id, j); isRule {
					p := d.Prefix(int(ref), target-1-len(right))
					right = append(right, p...)
				} else {
					right = append(right, ref)
				}
			}
			buf := make([]uint64, 0, len(left)+len(right))
			buf = append(buf, left...)
			buf = append(buf, right...)
			// Every window of length target starting inside the left
			// context crosses boundary b.
			for s := 0; s < len(left); s++ {
				if s+target > len(buf) {
					break
				}
				addWindow(buf[s:s+target], occ)
			}
		}
	}
	return cands
}

// detectReference is the string-keyed Detect this package shipped before
// its flat window table: every window is copied into an 8-byte-per-symbol
// string key of one map. It is kept unchanged as the differential oracle
// the current Detect must agree with exactly.
//
// It enumerates minimal hot data streams on the DAG: Larus's postorder
// traversal, visiting each node once and, at each interior node, examining
// the data streams formed by concatenating subsequences that span the
// boundaries between the node's descendants (streams produced wholly by a
// descendant are found when that descendant is visited). Runs in
// O(E·L) sites with per-site work bounded by the minimal hot length at
// that site.
func detectReference(d *sequitur.DAG, cfg Config) []*Stream {
	cfg.normalize()
	cands := referenceCandidates(d, cfg)

	// Aggregate, filter by heat, and enforce minimality: process by
	// increasing length so a stream with a hot proper prefix is dropped.
	list := make([]*candidate, 0, len(cands))
	for _, c := range cands {
		// Regularity requires at least two non-overlapping occurrences
		// (§2.2) in addition to the heat threshold.
		if c.freq >= 2 && uint64(len(c.seq))*c.freq >= cfg.Heat {
			list = append(list, c)
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if len(list[i].seq) != len(list[j].seq) {
			return len(list[i].seq) < len(list[j].seq)
		}
		return lexLess(list[i].seq, list[j].seq)
	})
	tr := newTrie()
	var out []*Stream
	for _, c := range list {
		if tr.hasHotPrefix(c.seq) {
			continue
		}
		st := &Stream{ID: len(out), Seq: c.seq, EstFreq: c.freq}
		tr.insert(c.seq, st.ID)
		out = append(out, st)
	}
	return out
}

func lexLess(a, b []uint64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// TestDetectMatchesReference requires the window-table Detect to return
// exactly what the string-keyed oracle returns — same streams, same
// order, same IDs and estimated frequencies — on the grammar of every
// workload family across heats spanning the threshold search's range.
func TestDetectMatchesReference(t *testing.T) {
	heats := []uint64{2, 5, 17, 33, 67, 100, 150, 500, 2000}
	for _, bench := range workload.Names() {
		buf, err := workload.Generate(bench, 30_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		names := abstract.New(abstract.BirthID).Abstract(buf).Names
		g := sequitur.New()
		g.AppendAll(names)
		d := sequitur.NewDAG(g, 100)
		for _, heat := range heats {
			cfg := DefaultConfig(heat)
			got, want := Detect(d, cfg), detectReference(d, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s heat %d: Detect returned %d streams, reference %d (first difference at %d)",
					bench, heat, len(got), len(want), firstStreamDiff(got, want))
			}
		}
	}
}

// TestMeasureOnDetectTrie requires a measurement taken on the trie that
// detect leaves in its window table to equal Measure's on a trie built
// afresh from the same streams, for every workload family at the heats
// TestDetectMatchesReference uses. One window table serves all heats of
// a family, as it serves all probes of a threshold search.
func TestMeasureOnDetectTrie(t *testing.T) {
	heats := []uint64{2, 5, 17, 33, 67, 100, 150, 500, 2000}
	for _, bench := range workload.Names() {
		buf, err := workload.Generate(bench, 30_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		names := abstract.New(abstract.BirthID).Abstract(buf).Names
		g := sequitur.New()
		g.AppendAll(names)
		d := sequitur.NewDAG(g, 100)
		wt := newWindowTable()
		for _, heat := range heats {
			cfg := DefaultConfig(heat)
			got := measureWith(names, detect(d, cfg, wt), wt.minimal, cfg, 0, false)
			want := Measure(names, Detect(d, cfg), cfg, 0, false)
			if got.TotalRefs != want.TotalRefs || got.CoveredRefs != want.CoveredRefs || got.ColdRefs != want.ColdRefs {
				t.Errorf("%s heat %d: total/covered/cold refs %d/%d/%d, fresh trie %d/%d/%d", bench, heat,
					got.TotalRefs, got.CoveredRefs, got.ColdRefs, want.TotalRefs, want.CoveredRefs, want.ColdRefs)
			}
			if !reflect.DeepEqual(got.Streams, want.Streams) {
				t.Errorf("%s heat %d: %d streams, fresh trie %d (first difference at %d)",
					bench, heat, len(got.Streams), len(want.Streams), firstStreamDiff(got.Streams, want.Streams))
			}
		}
	}
}

// TestHotCandidatesMatchReference compares the candidates that pass the
// heat filter, before minimality, with the oracle's: minimality hides a
// missing candidate whenever a shorter hot prefix would have dropped it,
// so the stream lists alone do not pin the window enumeration. Among
// the DAGs is one whose affixes are shorter than the windows.
func TestHotCandidatesMatchReference(t *testing.T) {
	for _, bench := range []string{"boxsim", "197.parser", "252.eon", "255.vortex"} {
		buf, err := workload.Generate(bench, 30_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		names := abstract.New(abstract.BirthID).Abstract(buf).Names
		g := sequitur.New()
		g.AppendAll(names)
		for _, c := range []struct {
			affix  int
			maxLen int
			heats  []uint64
		}{{100, 100, []uint64{2, 5, 17, 33, 67, 150}}, {4, 12, []uint64{3, 6, 9, 12}}} {
			d := sequitur.NewDAG(g, c.affix)
			for _, heat := range c.heats {
				cfg := Config{MinLen: 2, MaxLen: c.maxLen, Heat: heat}
				want := map[string]uint64{}
				for k, cand := range referenceCandidates(d, cfg) {
					if cand.freq >= 2 && uint64(len(cand.seq))*cand.freq >= heat {
						want[k] = cand.freq
					}
				}
				wt := newWindowTable()
				detect(d, cfg, wt)
				got := map[string]uint64{}
				for i := range wt.cands {
					cand := &wt.cands[i]
					if cand.freq >= 2 && uint64(cand.n)*cand.freq >= heat {
						got[seqKey(wt.seq(cand))] = cand.freq
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s affix %d heat %d: %d hot candidates, reference %d", bench, c.affix, heat, len(got), len(want))
				}
			}
		}
	}
}

// seqKey is referenceCandidates' key for a window.
func seqKey(win []uint64) string {
	b := make([]byte, 0, 8*len(win))
	for _, v := range win {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

func firstStreamDiff(a, b []*Stream) int {
	for i := range a {
		if i >= len(b) || !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return len(a)
}

// FuzzDetect drives Detect and the oracle over the grammar of arbitrary
// short name sequences at an arbitrary heat and length window. Each input
// byte is one name drawn from an alphabet whose size the first byte
// picks, so small alphabets (much repetition, deep grammars) and large
// ones (little) are both reached.
func FuzzDetect(f *testing.F) {
	motifs := [][]uint64{sym("abcde"), sym("fghij"), sym("klm")}
	rng := rand.New(rand.NewSource(1))
	var seed []byte
	for len(seed) < 600 {
		for _, v := range motifs[rng.Intn(3)] {
			seed = append(seed, byte(v))
		}
	}
	f.Add(append([]byte{13}, seed...), uint16(500), uint8(2), uint8(100))
	f.Add(append([]byte{13}, seed...), uint16(20), uint8(3), uint8(6))
	f.Add([]byte(figure2Seq2), uint16(6), uint8(2), uint8(100))
	f.Add([]byte{2, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1}, uint16(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, heat uint16, minLen, maxLen uint8) {
		// Minimizing an interesting input runs this body on about len²/2
		// shorter candidates at up to a millisecond each, so inputs
		// longer than 1,024 names are skipped rather than minimized for
		// the whole fuzzing budget.
		if len(data) < 2 || len(data) > 1024 {
			return
		}
		alpha := int(data[0])%32 + 1
		names := make([]uint64, len(data)-1)
		for i, c := range data[1:] {
			names[i] = uint64(int(c)%alpha) + 1
		}
		g := sequitur.New()
		g.AppendAll(names)
		d := sequitur.NewDAG(g, int(maxLen)%101+1)
		cfg := Config{MinLen: int(minLen) % 12, MaxLen: int(maxLen) % 101, Heat: uint64(heat)}
		got, want := Detect(d, cfg), detectReference(d, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: Detect returned %d streams, reference %d (first difference at %d)",
				cfg, len(got), len(want), firstStreamDiff(got, want))
		}
	})
}
