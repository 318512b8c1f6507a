package hotstream

import (
	"slices"

	"repro/internal/sequitur"
)

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
	// candidates that extend one of them. Once detect returns it indexes
	// exactly the returned streams, and a threshold search's probe
	// measures on it before the next reset.
	minimal *trie
	// keys holds the window keys of one run (see runKeys).
	keys []uint64
	// singles are the deferred runs (see deferRule),
	// singleWins their window count, and seen the two bitsets
	// addRepeated filters them with.
	singles    []winRun
	singleWins int
	seen       []uint64
}

// winRun is a run of windows: the length-n windows of the arena that
// start at lo..hi-1.
type winRun struct{ lo, hi, n int }

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
	t.singles, t.singleWins = t.singles[:0], 0
}

func (t *windowTable) seq(c *winCand) []uint64 { return t.arena[c.off : c.off+int(c.n)] }

// runKeys returns the keys of the length-n windows starting at
// arena[lo:hi], in start order, rolling one hash along the run. Every
// window must lie inside the arena. The slice is reused by the next
// call.
func (t *windowTable) runKeys(lo, hi, n int) []uint64 {
	t.keys = t.keys[:0]
	if lo >= hi {
		return t.keys
	}
	for len(t.pow) < n {
		t.pow = append(t.pow, t.pow[len(t.pow)-1]*winBase)
	}
	top := t.pow[n-1]
	// Fold the length in so equal-hash windows of different lengths
	// land apart.
	fold := uint64(n) * 0xff51afd7ed558ccd
	buf := t.arena[lo : hi-1+n]
	var h uint64
	for _, v := range buf[:n] {
		h = h*winBase + winMix(v)
	}
	t.keys = append(t.keys, h^fold)
	for s := 1; s < hi-lo; s++ {
		h = (h-winMix(buf[s-1])*top)*winBase + winMix(buf[s+n-1])
		t.keys = append(t.keys, h^fold)
	}
	return t.keys
}

// addSite records every boundary-crossing window of the site context
// stored at arena[base:] with occurrence mass occ. The context is
// released again unless a new candidate points into it.
func (t *windowTable) addSite(base, nLeft, n int, occ uint64) {
	// The windows that start in the first nLeft elements (the ones that
	// cross the site's boundary) and fit in the context.
	end := base + max(0, min(nLeft, len(t.arena)-base-n+1))
	used := false
	for s, key := range t.runKeys(base, end, n) {
		if t.add(base+s, n, key, occ) {
			used = true
		}
	}
	if !used {
		t.arena = t.arena[:base]
	}
}

// deferRun appends a run of deferred windows, extending the last run
// when it ends where this one starts.
func (t *windowTable) deferRun(lo, hi, n int) {
	if k := len(t.singles) - 1; k >= 0 && t.singles[k].hi == lo && t.singles[k].n == n {
		t.singles[k].hi = hi
	} else {
		t.singles = append(t.singles, winRun{lo, hi, n})
	}
	t.singleWins += hi - lo
}

// deferRule keeps every boundary-crossing window of rule p, which
// occurs once, for addRepeated: when no site of another mass shares the
// windows' length, they can only reach frequency 2 by repeating among
// themselves, and most do not (at a low heat they are the root rule's,
// nearly one per reference). It lays the rule's expansion out in the
// arena once, as far as the windows reach. A window starts in the last n-1 terminals of an
// element and ends at most n-1 terminals after it, so an element of
// expansion length L <= 2(n-1) is copied whole, and a longer one only as
// its first and last n-1 terminals, with a break between that no window
// crosses. Each terminal is copied at most once, where the site contexts
// copy it once per window that reaches it. It reports false, with the
// table unchanged, if the DAG holds shorter affixes than this needs.
func (t *windowTable) deferRule(d *sequitur.DAG, p, n int) bool {
	base, runs, wins := len(t.arena), len(t.singles), t.singleWins
	// clip ends the runs deferred since the last break at the last
	// window that fits before limit.
	seg := runs
	clip := func(limit int) {
		for i := seg; i < len(t.singles); i++ {
			r := &t.singles[i]
			if end := max(limit-n+1, r.lo); r.hi > end {
				t.singleWins -= r.hi - end
				r.hi = end
			}
		}
		seg = len(t.singles)
	}
	k := d.RHSLen(p)
	for b := 0; b < k; b++ {
		start := len(t.arena)
		if ref, isRule := d.Elem(p, b); !isRule {
			t.arena = append(t.arena, ref)
		} else {
			l := int(d.ExpLen(int(ref)))
			a := min(l, n-1)
			rest := min(l-a, n-1)
			pre, suf := d.Prefix(int(ref), a), d.Suffix(int(ref), rest)
			if len(pre) != a || len(suf) != rest {
				t.arena, t.singles, t.singleWins = t.arena[:base], t.singles[:runs], wins
				return false
			}
			t.arena = append(t.arena, pre...)
			if l > 2*(n-1) {
				clip(len(t.arena))
				start = len(t.arena)
			}
			t.arena = append(t.arena, suf...)
		}
		if b+1 < k {
			end := len(t.arena)
			t.deferRun(max(end-(n-1), start), end, n)
		}
	}
	clip(len(t.arena))
	return true
}

// addRepeated records, with mass 1, the deferred windows whose key
// falls in a bucket of a bitset that two or more deferred windows hit.
// Every repeating window is among them, so the candidates that can
// reach frequency 2 are exactly those addSite would have made; the
// others that slip through share a bucket by chance and stay at 1. The
// deferred contexts stay in the arena.
func (t *windowTable) addRepeated() {
	if len(t.singles) == 0 {
		return
	}
	bits := uint(6)
	for 1<<bits < 8*t.singleWins {
		bits++
	}
	words := 1 << (bits - 6)
	if cap(t.seen) < 2*words {
		t.seen = make([]uint64, 2*words)
	} else {
		t.seen = t.seen[:2*words]
		clear(t.seen)
	}
	once, twice := t.seen[:words], t.seen[words:]
	shift := 64 - bits
	for _, r := range t.singles {
		for _, key := range t.runKeys(r.lo, r.hi, r.n) {
			i := key * winFib >> shift
			w, b := i>>6, uint64(1)<<(i&63)
			twice[w] |= once[w] & b
			once[w] |= b
		}
	}
	for _, r := range t.singles {
		for s, key := range t.runKeys(r.lo, r.hi, r.n) {
			if i := key * winFib >> shift; twice[i>>6]&(1<<(i&63)) != 0 {
				t.add(r.lo+s, r.n, key, 1)
			}
		}
	}
}

// add counts the window arena[off:off+n] with key key and reports
// whether it became a new candidate.
func (t *windowTable) add(off, n int, key, occ uint64) bool {
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
