package reduce

import (
	"math/rand"
	"testing"
)

func motifTrace(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	motifs := [][]uint64{{1, 2, 3, 4, 5}, {6, 7, 8}, {9, 10, 11, 12}}
	var out []uint64
	for len(out) < n {
		out = append(out, motifs[rng.Intn(3)]...)
		if rng.Intn(5) == 0 {
			out = append(out, uint64(100+rng.Intn(30)))
		}
	}
	return out[:n]
}

func TestPipelineTwoLevels(t *testing.T) {
	names := motifTrace(20000, 1)
	p := Run(nil, names, 42, DefaultOptions())
	if len(p.Levels) < 2 {
		t.Fatalf("levels = %d, want >= 2", len(p.Levels))
	}
	l0, l1 := p.Levels[0], p.Levels[1]
	if l0.WPS.NumRefs != 20000 {
		t.Errorf("level0 refs = %d", l0.WPS.NumRefs)
	}
	if len(l0.Streams) == 0 {
		t.Fatal("no level-0 hot streams")
	}
	// WPS1 input is the reduced trace: it must be shorter than the
	// original.
	if l1.WPS.NumRefs >= l0.WPS.NumRefs {
		t.Errorf("WPS1 input %d not smaller than WPS0 input %d", l1.WPS.NumRefs, l0.WPS.NumRefs)
	}
	// Grammar sizes must shrink level over level on regular input.
	s0, s1 := l0.WPS.Size(), l1.WPS.Size()
	if s1.ASCIIBytes >= s0.ASCIIBytes {
		t.Errorf("WPS1 %dB not smaller than WPS0 %dB", s1.ASCIIBytes, s0.ASCIIBytes)
	}
}

func TestCoverageBookkeeping(t *testing.T) {
	names := motifTrace(20000, 2)
	p := Run(nil, names, 42, DefaultOptions())
	l0 := p.Levels[0]
	// Streams0 must cover roughly the coverage target of original refs.
	if l0.OriginalCoverage < 0.5 || l0.OriginalCoverage > 1.0 {
		t.Errorf("level0 original coverage = %v", l0.OriginalCoverage)
	}
	if len(p.Levels) > 1 && len(p.Levels[1].Streams) > 0 {
		l1 := p.Levels[1]
		// The 90%/81% cascade: streams1 cover at most what streams0
		// cover.
		if l1.OriginalCoverage > l0.OriginalCoverage+1e-9 {
			t.Errorf("level1 coverage %v exceeds level0 %v", l1.OriginalCoverage, l0.OriginalCoverage)
		}
		if l1.OriginalCoverage <= 0 {
			t.Error("level1 coverage must be positive on regular input")
		}
	}
}

func TestRefWeights(t *testing.T) {
	names := motifTrace(10000, 3)
	p := Run(nil, names, 42, DefaultOptions())
	l0 := p.Levels[0]
	for i, s := range l0.Streams {
		if l0.RefWeight[i] != uint64(len(s.Seq)) {
			t.Errorf("level0 stream %d weight %d != len %d", i, l0.RefWeight[i], len(s.Seq))
		}
	}
	if len(p.Levels) > 1 {
		l1 := p.Levels[1]
		for i, s := range l1.Streams {
			// A level-1 stream's weight is the sum of its member
			// streams' level-0 weights: at least 2 refs per member.
			if l1.RefWeight[i] < 2*uint64(len(s.Seq)) {
				t.Errorf("level1 stream %d weight %d too small for %d members",
					i, l1.RefWeight[i], len(s.Seq))
			}
		}
	}
}

func TestSFGBuiltPerLevel(t *testing.T) {
	names := motifTrace(10000, 4)
	p := Run(nil, names, 42, DefaultOptions())
	for _, l := range p.Levels {
		if len(l.Streams) > 0 && l.SFG == nil {
			t.Errorf("level %d has streams but no SFG", l.Index)
		}
		if l.SFG != nil && l.SFG.NumNodes != len(l.Streams) {
			t.Errorf("level %d SFG nodes %d != streams %d", l.Index, l.SFG.NumNodes, len(l.Streams))
		}
	}
}

func TestSizes(t *testing.T) {
	names := motifTrace(10000, 5)
	p := Run(nil, names, 42, DefaultOptions())
	sizes := p.Sizes()
	if len(sizes) != len(p.Levels) {
		t.Fatalf("sizes = %d, levels = %d", len(sizes), len(p.Levels))
	}
	for _, s := range sizes {
		if s.WPSBytes == 0 {
			t.Errorf("level %d WPS bytes = 0", s.Level)
		}
	}
}

func TestZeroLevels(t *testing.T) {
	names := motifTrace(5000, 6)
	p := Run(nil, names, 42, Options{Levels: 0, MinLen: 2, MaxLen: 100, CoverageTarget: 0.9})
	if len(p.Levels) != 1 {
		t.Fatalf("levels = %d, want 1", len(p.Levels))
	}
}

func TestEmptyInput(t *testing.T) {
	p := Run(nil, nil, 0, DefaultOptions())
	if len(p.Levels) != 1 {
		t.Fatalf("levels = %d, want 1 (bare WPS0)", len(p.Levels))
	}
	if p.Levels[0].WPS.NumRefs != 0 {
		t.Error("empty WPS0 expected")
	}
}

func TestIrregularInputStops(t *testing.T) {
	// Near-random input: level 0 may find few or no streams; the
	// pipeline must not panic and must terminate.
	rng := rand.New(rand.NewSource(9))
	names := make([]uint64, 5000)
	for i := range names {
		names[i] = uint64(rng.Intn(2500))
	}
	p := Run(nil, names, 2500, DefaultOptions())
	if len(p.Levels) == 0 {
		t.Fatal("no levels")
	}
}
