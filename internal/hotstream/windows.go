package hotstream

import "slices"

// windowTable collects Detect's candidate windows: every distinct
// subsequence seen at some site, with the occurrence mass summed over the
// sites it appears at. Site contexts live in one arena, reset by each
// Detect pass; a candidate is the arena position of its first window, so
// recording a new candidate copies nothing, and repeat windows only add
// to its frequency. Lookups go through one open-addressed table of
// candidate indices keyed by a rolling hash; every hash hit is confirmed
// by comparing the two windows element by element, so colliding windows
// never merge.
type windowTable struct {
	arena []uint64
	cands []winCand
	// slots holds candidate index+1 (0 = empty), linear probing; its
	// length is a power of two kept at least twice len(cands).
	slots []int32
	shift uint // 64 - log2(len(slots))
	// pow[i] = winBase^i, grown on demand up to the longest window.
	pow []uint64
	// minimal indexes the streams Detect has accepted, to drop the
	// candidates that extend one of them.
	minimal *trie
}

// winCand is one distinct window: arena[off:off+n], its hash key, and its
// summed occurrence mass.
type winCand struct {
	key  uint64
	freq uint64
	off  int
	n    int32
}

const (
	// winBase is the rolling hash's multiplier: the FNV-64 prime, odd
	// so the polynomial is a bijection in its last term.
	winBase = 0x100000001b3
	// winFib spreads a key over the table (Fibonacci hashing takes the
	// top bits of key*winFib).
	winFib      = 0x9e3779b97f4a7c15
	winSlotBits = 10
)

func newWindowTable() *windowTable {
	return &windowTable{
		slots:   make([]int32, 1<<winSlotBits),
		shift:   64 - winSlotBits,
		pow:     []uint64{1},
		minimal: newTrie(),
	}
}

// winMix scrambles one symbol before it enters the polynomial: names are
// small dense integers, and unmixed they would leave the hash's high
// bits nearly constant across windows of a short length.
func winMix(v uint64) uint64 {
	v ^= v >> 31
	v *= 0xbf58476d1ce4e5b9
	return v ^ v>>29
}

// reset empties the table, keeping its memory.
func (t *windowTable) reset() {
	t.arena = t.arena[:0]
	t.cands = t.cands[:0]
	clear(t.slots)
	t.minimal.reset()
}

func (t *windowTable) seq(c *winCand) []uint64 { return t.arena[c.off : c.off+int(c.n)] }

// addSite records every length-n window of the site context stored at
// arena[base:] that starts in its first nLeft elements (the windows that
// cross the site's boundary), each with occurrence mass occ. The context
// is released again unless a new candidate points into it.
func (t *windowTable) addSite(base, nLeft, n int, occ uint64) {
	buf := t.arena[base:]
	if len(buf) < n {
		t.arena = t.arena[:base]
		return
	}
	for len(t.pow) < n {
		t.pow = append(t.pow, t.pow[len(t.pow)-1]*winBase)
	}
	top := t.pow[n-1]
	var h uint64
	for _, v := range buf[:n] {
		h = h*winBase + winMix(v)
	}
	used := false
	for s := 0; s < nLeft && s+n <= len(buf); s++ {
		if s > 0 {
			h = (h-winMix(buf[s-1])*top)*winBase + winMix(buf[s+n-1])
		}
		if t.add(base+s, n, h, occ) {
			used = true
		}
	}
	if !used {
		t.arena = t.arena[:base]
	}
}

// add counts the window arena[off:off+n] with hash h and reports whether
// it became a new candidate.
func (t *windowTable) add(off, n int, h, occ uint64) bool {
	// Fold the length in so equal-hash windows of different lengths
	// land apart.
	key := h ^ uint64(n)*0xff51afd7ed558ccd
	win := t.arena[off : off+n]
	mask := len(t.slots) - 1
	for i := int(key * winFib >> t.shift); ; i = (i + 1) & mask {
		ci := t.slots[i]
		if ci == 0 {
			t.cands = append(t.cands, winCand{key: key, freq: occ, off: off, n: int32(n)})
			t.slots[i] = int32(len(t.cands))
			if 2*len(t.cands) > len(t.slots) {
				t.grow()
			}
			return true
		}
		c := &t.cands[ci-1]
		if c.key == key && int(c.n) == n && slices.Equal(t.seq(c), win) {
			c.freq += occ
			return false
		}
	}
}

// grow doubles the slot table and reinserts every candidate by its key.
func (t *windowTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for ci := range t.cands {
		i := int(t.cands[ci].key * winFib >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(ci + 1)
	}
}
