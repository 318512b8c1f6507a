package locality

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/abstract"
	"repro/internal/hotstream"
	"repro/internal/sequitur"
	"repro/internal/workload"
)

// packingReference is the PackingEfficiency this package shipped before
// it counted interval unions: every cache block each unique member spans
// goes into a map, so its cost grows with object size. It is kept
// unchanged as the differential oracle the current function must agree
// with exactly. It never returns on a 1-byte block whose span reaches
// block 0xFFFFFFFF, so callers keep the block size at 2 or more.
func packingReference(s *hotstream.Stream, objects map[uint64]*abstract.Object, blockSize int) float64 {
	if blockSize <= 0 || len(s.Seq) == 0 {
		return 1
	}
	seen := make(map[uint64]struct{}, len(s.Seq))
	blocks := make(map[uint32]struct{}, len(s.Seq))
	var totalBytes uint64
	for _, name := range s.Seq {
		if _, dup := seen[name]; dup {
			continue
		}
		seen[name] = struct{}{}
		base, size := uint32(0), uint32(4)
		if o, ok := objects[name]; ok {
			base, size = o.Base, o.Size
			if size == 0 {
				size = 4
			}
		}
		totalBytes += uint64(size)
		for b := base / uint32(blockSize); b <= (base+size-1)/uint32(blockSize); b++ {
			blocks[b] = struct{}{}
		}
	}
	minBlocks := (totalBytes + uint64(blockSize) - 1) / uint64(blockSize)
	if minBlocks == 0 {
		minBlocks = 1
	}
	actual := uint64(len(blocks))
	if actual == 0 {
		return 1
	}
	eff := float64(minBlocks) / float64(actual)
	if eff > 1 {
		eff = 1
	}
	return eff
}

// searchedStreams returns the hot data streams of a searched snapshot of
// a 30k-reference trace of the named workload family, with the trace's
// object map.
func searchedStreams(tb testing.TB, bench string) ([]*hotstream.Stream, map[uint64]*abstract.Object) {
	tb.Helper()
	buf, err := workload.Generate(bench, 30_000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	res := abstract.New(abstract.BirthID).Abstract(buf)
	g := sequitur.New()
	g.AppendAll(res.Names)
	d := sequitur.NewDAG(g, 100)
	_, m := hotstream.FindThreshold(d, res.Names, uint64(len(res.Names)),
		buf.Stats().Addresses, hotstream.SearchConfig{})
	return m.Streams, res.Objects
}

// packingBlockSizes are the block sizes the oracle comparisons cover.
var packingBlockSizes = []int{32, 64, 128}

// checkPacking requires PackingEfficiency and the oracle to return the
// same float64, bit for bit.
func checkPacking(t *testing.T, label string, s *hotstream.Stream, objects map[uint64]*abstract.Object, blockSize int) {
	t.Helper()
	got, want := PackingEfficiency(s, objects, blockSize), packingReference(s, objects, blockSize)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s block %d seq %v: PackingEfficiency = %v, reference %v", label, blockSize, s.Seq, got, want)
	}
}

// TestPackingEfficiencyMatchesReference requires the interval-union
// count to agree exactly with the block-map oracle on every stream of a
// searched snapshot of every workload family, and on hand-built spans
// that exercise duplicates, missing members, zero sizes, overlap and
// uint32 wrap-around.
func TestPackingEfficiencyMatchesReference(t *testing.T) {
	compared := 0
	for _, bench := range workload.Names() {
		streams, objects := searchedStreams(t, bench)
		if len(streams) == 0 {
			t.Fatalf("%s: searched snapshot has no streams", bench)
		}
		for _, bs := range packingBlockSizes {
			for _, s := range streams {
				checkPacking(t, bench, s, objects, bs)
				compared++
			}
		}
	}
	t.Logf("%d family comparisons", compared)

	objects := map[uint64]*abstract.Object{
		// Adjacent, overlapping and nested objects.
		1: obj(1, 0, 16), 2: obj(2, 16, 16), 3: obj(3, 24, 100), 4: obj(4, 40, 8),
		5: obj(5, 1000, 0), // Size 0 counts as one 4-byte word.
		6: obj(6, 4096, 300),
		// Spans whose last byte base+size-1 wraps past 0xFFFFFFFF.
		7:  obj(7, 0xFFFFFFFE, 0),          // 4-byte word wrapping to 0x1: no block
		8:  obj(8, 0xFFFFFFF0, 0x20),       // wraps to 0xF: no block at 32, 64, 128
		9:  obj(9, 0xFFFFFFD0, 0xFFFFFFF8), // wraps to 0xFFFFFFC7: base's block only
		10: obj(10, 0x100, 0xFFFFFFF8),     // wraps to 0xF7: block before base's, none
		11: obj(11, 0x110, 0xFFFFFFF8),     // wraps to 0x107: base's block at 64 and 128
		12: obj(12, 0xFFFFFFC0, 0x40),      // ends exactly at 0xFFFFFFFF, no wrap
	}
	for _, seq := range [][]uint64{
		{1, 1, 1},
		{1, 2, 1, 2, 2},
		{1, 3},
		{3, 4},
		{1, 2, 3, 4},
		{42, 43, 42},   // missing from the object map: 4-byte words at 0
		{1, 42, 5, 43}, // known, missing and Size 0 together
		{5},
		{5, 6, 6, 5},
		{7}, {8}, {9}, {10}, {11}, {12},
		{7, 8, 9, 10, 11, 12},
		{9, 12, 1},
		{11, 1, 2, 11},
		{8, 42, 6},
	} {
		for _, bs := range packingBlockSizes {
			checkPacking(t, "hand-built", &hotstream.Stream{Seq: seq}, objects, bs)
		}
	}
}

// FuzzPackingEfficiency checks PackingEfficiency against the oracle on
// arbitrary streams and object maps. Each 9 bytes of objs are one object
// (name byte, base and size as little-endian uint32); names are folded
// into a small alphabet so streams repeat members and also name members
// the map lacks. Inputs on which the oracle would walk many blocks are
// skipped: the block size is at least 2 and a span that does not wrap
// covers at most 4096 blocks. Wrapping spans cost the oracle at most one
// block, so every wrap case stays reachable.
func FuzzPackingEfficiency(f *testing.F) {
	le := func(base, size uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, base), size)
	}
	var objs []byte
	for i, o := range []struct{ base, size uint32 }{
		{0, 16}, {16, 16}, {24, 100}, {1000, 0}, {0xFFFFFFFE, 0}, {0xFFFFFFD0, 0xFFFFFFF8}, {0x110, 0xFFFFFFF8},
	} {
		objs = append(append(objs, byte(i)), le(o.base, o.size)...)
	}
	f.Add([]byte{0, 1, 2, 0, 1}, objs, uint16(64))
	f.Add([]byte{3, 4, 5, 6, 9}, objs, uint16(32))
	f.Add([]byte{5, 6, 2, 2}, objs, uint16(128))
	f.Add([]byte{0, 2}, objs, uint16(2))
	f.Fuzz(func(t *testing.T, seq, objs []byte, blockSize uint16) {
		if blockSize < 2 || len(seq) > 512 {
			return
		}
		bs := uint32(blockSize)
		objects := make(map[uint64]*abstract.Object)
		for ; len(objs) >= 9; objs = objs[9:] {
			name := uint64(objs[0] % 16)
			base, size := binary.LittleEndian.Uint32(objs[1:]), binary.LittleEndian.Uint32(objs[5:])
			last := base + size - 1
			if size == 0 {
				last = base + 3
			}
			if last >= base && last/bs-base/bs >= 4096 {
				return
			}
			objects[name] = &abstract.Object{Name: name, Base: base, Size: size}
		}
		s := &hotstream.Stream{Seq: make([]uint64, len(seq))}
		for i, c := range seq {
			s.Seq[i] = uint64(c % 20)
		}
		got, want := PackingEfficiency(s, objects, int(blockSize)), packingReference(s, objects, int(blockSize))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("block %d seq %v: PackingEfficiency = %v, reference %v", blockSize, s.Seq, got, want)
		}
	})
}
