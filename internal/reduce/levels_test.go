package reduce

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/abstract"
	"repro/internal/workload"
)

// levelDigest hashes everything one level hands to its consumers: the
// threshold (multiple, unit, heat, coverage), each stream's ID, sequence,
// estimated and measured frequency and gap sum, the stream base, and the
// reduced trace that feeds the next level.
func levelDigest(l Level) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putSeq := func(vs []uint64) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(v)
		}
	}
	th := l.Threshold
	put(th.Multiple)
	put(math.Float64bits(th.Unit))
	put(th.Heat)
	put(math.Float64bits(th.Coverage))
	put(l.StreamBase)
	put(uint64(len(l.Streams)))
	for _, s := range l.Streams {
		put(uint64(s.ID))
		putSeq(s.Seq)
		put(s.EstFreq)
		put(s.Freq)
		put(s.GapSum)
	}
	if l.Measurement != nil {
		put(l.Measurement.TotalRefs)
		put(l.Measurement.CoveredRefs)
		putSeq(l.Measurement.Reduced)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPipelineLevelsPinned pins every level of a two-level reduction on
// two workload families: the threshold search, detection, measurement
// and reduced-trace tokenization at each level must keep producing the
// same bytes however they are implemented.
func TestPipelineLevelsPinned(t *testing.T) {
	type level struct {
		multiple uint64
		streams  int
		digest   string
	}
	cases := []struct {
		bench string
		want  []level
	}{
		{"boxsim", []level{
			{13, 1121, "fb3d8b27f50c634cca29191568ed6ea55c3832e83a26fd443eb6bf81161c8e9e"},
			{1, 168, "6835caf6974e631c1ea87a081b349bc7368271f7e36dd01c81ee0085bdb61bee"},
			{3, 95, "ec3b63b30113a8909b6835ae6f318024ef0d0a7e36c704d6dfdd23513d057e13"},
		}},
		{"sqlserver", []level{
			{1, 735, "a849952d7f86b2b28166b41f0fe755a36baaf7d18636919a7e4c2450eca3d896"},
			{1, 618, "7c37ea46870e37ac5f1791f90747cb91b23fbfc7f603f3b959644d7a74818be8"},
			{1, 427, "5f6afce56781940f439db52d030f41f5d8aa7105c6bf1b77ef92dd2ee35ecded"},
		}},
	}
	for _, c := range cases {
		t.Run(c.bench, func(t *testing.T) {
			buf, err := workload.Generate(c.bench, 30_000, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := abstract.New(abstract.BirthID).Abstract(buf)
			opts := DefaultOptions()
			opts.Levels = 2
			p := Run(nil, res.Names, buf.Stats().Addresses, opts)
			if len(p.Levels) != len(c.want) {
				t.Fatalf("levels = %d, want %d", len(p.Levels), len(c.want))
			}
			for i, l := range p.Levels {
				got := level{l.Threshold.Multiple, len(l.Streams), levelDigest(l)}
				if got != c.want[i] {
					t.Errorf("level %d = %+v, want %+v", i, got, c.want[i])
				}
			}
		})
	}
}
