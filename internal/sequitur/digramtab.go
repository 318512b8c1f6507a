package sequitur

import "fmt"

// This file implements the digram index as a specialized open-addressing
// hash table. The generic map[digram]*symbol was the ingest hot path's
// dominant cost: every Append performs several digram operations, each
// paying a 128-bit runtime hash plus generic map machinery. The
// specialized table keys on the two uint64 halves directly with a
// multiply-xor mix, probes linearly in a power-of-two slot array, and
// deletes with backward shifting (no tombstones, so probe chains never
// degrade). check's lookup-then-insert becomes a single probe
// (lookupOrInsert). Slots are 24 bytes — key, symbol handle, and the low
// 32 bits of the key's hash (the handle refactor shrank the entry enough
// that the hash cache rides in what used to be padding) — so a probe
// touches a single cache line and the slot array is pointer-free: the GC
// skips it entirely. A split control-byte layout was measured slower here
// because hit-heavy probing paid three cache lines instead of one.
//
// The cached hash serves backward-shift deletion and resize, which need
// each entry's home slot but not the full 64-bit hash: home is hash&mask,
// and the slot array never exceeds 2^31 slots (maybeGrow caps it; 2^31
// slots is 48 GiB of table), so 32 stored bits always cover the mask.
//
// Deletion never probes. The table carries a reverse index — where[s] is
// the slot (plus one) currently recording symbol handle s — so the
// grammar's deleteDigram("drop the entry pointing at me, if any")
// becomes a single array load instead of a hash-probe for a key that is
// usually absent. The index is dense (4 bytes per allocated symbol
// handle), grows with the arena's high-water mark, and is maintained by
// every path that moves an entry: insert, overwrite, backward shift, and
// resize.
//
// Invariants: an occupied slot has s != nilSym; n counts occupied
// slots; load is kept at or below 1/2 so linear probe chains stay short
// (a denser 3/4 table was measured slower: backward-shift deletion cost
// grows with chain length faster than the footprint shrinks); where and
// the occupied slots are inverse permutations of each other. Eviction
// (evict.go) deletes en masse, so it ends by calling compact, which
// shrinks the slot array back to a 1/4 load. Shrinking is deliberately
// NOT attempted on the per-append delete path: an earlier variant that
// halved the table whenever load dipped below 1/8 resized a dozen times
// per 65k-record ingest benchmark op as rule churn oscillated the entry
// count across the threshold. invariants() checks all of this and is
// wired into CheckInvariants.

// dslot is one table slot. Empty slots have s == nilSym. h caches the
// low 32 bits of hash(d) so shifts and resizes recompute nothing.
type dslot struct {
	d digram
	s symID
	h uint32
}

// minTableSlots is the smallest slot array init or compact produces.
const minTableSlots = 8

// maxTableSlots caps growth so the 32-bit cached hash always covers the
// probe mask. At the cap the load factor may exceed 1/2; probing stays
// correct at any load below 1, and a table this size is unreachable in
// practice (symbol handles run out first).
const maxTableSlots = 1 << 31

// digramTable is the open-addressing digram index. The zero value is not
// ready for use; call init first.
type digramTable struct {
	slots []dslot
	mask  uint64
	n     int
	// where[s] is 1 + the slot index recording symbol handle s, or 0 if
	// no entry points at s. Indexed by symID; grown on demand.
	where []uint32
}

// digramInitHint is the entry count a fresh grammar's table is sized
// for: 256 slots (6 KiB plus a 1 KiB reverse index), so an empty
// session stays small. The table doubles as entries arrive.
const digramInitHint = 1 << 7

// init sizes the table to hold hint entries without growing. Capacity is
// the next power of two at least 2× the hint (load factor 1/2). A fresh
// grammar passes digramInitHint; a restored one passes its symbol count,
// which bounds its entry count.
//
//lint:coldpath table construction; runs once per grammar
func (t *digramTable) init(hint int) {
	size := minTableSlots
	for size < hint*2 {
		size *= 2
	}
	t.slots = make([]dslot, size)
	t.mask = uint64(size - 1)
	t.n = 0
	t.where = make([]uint32, size)
}

// hash mixes both digram halves (an xmxmx finalizer over a combined
// word): digram keys are low-entropy (small sequential names, small rule
// IDs with the top bit set), so low bits must depend on every input bit.
func (t *digramTable) hash(d digram) uint64 {
	h := d.a*0x9E3779B97F4A7C15 + d.b
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

// len returns the number of live entries.
func (t *digramTable) len() int { return t.n }

// noteOwner records that slot i holds the entry pointing at s, growing
// the reverse index to cover s if needed.
func (t *digramTable) noteOwner(s symID, i uint64) {
	if int(s) >= len(t.where) {
		t.growWhere(int(s))
	}
	t.where[s] = uint32(i) + 1
}

// growWhere extends the reverse index to cover handle hi.
//
//lint:coldpath amortized doubling with the arena's high-water mark, never per record
func (t *digramTable) growWhere(hi int) {
	size := len(t.where) * 2
	for size <= hi {
		size *= 2
	}
	w := make([]uint32, size)
	copy(w, t.where)
	t.where = w
}

// lookup returns the symbol handle recorded for d, or nilSym.
func (t *digramTable) lookup(d digram) symID {
	i := t.hash(d) & t.mask
	for {
		sl := &t.slots[i]
		if sl.s == nilSym {
			return nilSym
		}
		if sl.d == d {
			return sl.s
		}
		i = (i + 1) & t.mask
	}
}

// owner returns the slot index holding the entry that points at s, or
// -1. This is the reverse index's read side; deletion and the sanitizer
// use it.
func (t *digramTable) owner(s symID) int {
	if int(s) >= len(t.where) || t.where[s] == 0 {
		return -1
	}
	return int(t.where[s]) - 1
}

// lookupOrInsert returns the existing entry for d, or records s under d
// and returns nilSym — check's lookup-then-insert in one probe sequence.
//
//lint:hotpath one probe per appended terminal; the digram-uniqueness check
func (t *digramTable) lookupOrInsert(d digram, s symID) symID {
	h := t.hash(d)
	i := h & t.mask
	for {
		sl := &t.slots[i]
		if sl.s == nilSym {
			sl.d = d
			sl.s = s
			sl.h = uint32(h)
			t.noteOwner(s, i)
			t.n++
			t.maybeGrow()
			return nilSym
		}
		if sl.d == d {
			return sl.s
		}
		i = (i + 1) & t.mask
	}
}

// set records s under d, overwriting any existing entry.
func (t *digramTable) set(d digram, s symID) {
	h := t.hash(d)
	i := h & t.mask
	for {
		sl := &t.slots[i]
		if sl.s == nilSym {
			sl.d = d
			sl.s = s
			sl.h = uint32(h)
			t.noteOwner(s, i)
			t.n++
			t.maybeGrow()
			return
		}
		if sl.d == d {
			t.where[sl.s] = 0
			sl.s = s
			t.noteOwner(s, i)
			return
		}
		i = (i + 1) & t.mask
	}
}

// removeOwner drops the entry pointing at s, if any — the grammar's
// deleteDigram. A reverse-index load replaces the hash-probe entirely
// (and in particular costs nothing in the common case where s is not a
// table representative).
//
//lint:hotpath several speculative deletes per appended terminal (join, remove, expand)
func (t *digramTable) removeOwner(s symID) {
	if int(s) < len(t.where) {
		if w := t.where[s]; w != 0 {
			t.deleteAt(uint64(w - 1))
		}
	}
}

// del removes the entry for d, if present.
func (t *digramTable) del(d digram) {
	i := t.hash(d) & t.mask
	for {
		sl := &t.slots[i]
		if sl.s == nilSym {
			return
		}
		if sl.d == d {
			t.deleteAt(i)
			return
		}
		i = (i + 1) & t.mask
	}
}

// deleteAt empties slot i and backward-shifts the following probe chain:
// each subsequent entry whose home position does not lie strictly after
// the hole moves into it (home positions come from the cached hash — no
// rehash). No tombstones, so chains stay as short as the live entries
// require. The reverse index tracks every move.
func (t *digramTable) deleteAt(i uint64) {
	t.n--
	t.where[t.slots[i].s] = 0
	for {
		t.slots[i] = dslot{}
		j := i
		for {
			j = (j + 1) & t.mask
			sl := &t.slots[j]
			if sl.s == nilSym {
				return
			}
			home := uint64(sl.h) & t.mask
			// Movable iff the hole lies within this entry's probe path:
			// the cyclic distance home→j spans the distance i→j.
			if (j-home)&t.mask >= (j-i)&t.mask {
				t.slots[i] = *sl
				t.where[sl.s] = uint32(i) + 1
				i = j
				break
			}
		}
	}
}

// all calls f for every entry until f returns false. Iteration order is
// unspecified; f must not mutate the table.
func (t *digramTable) all(f func(d digram, s symID) bool) {
	for i := range t.slots {
		if t.slots[i].s != nilSym && !f(t.slots[i].d, t.slots[i].s) {
			return
		}
	}
}

// maybeGrow doubles the table when load exceeds 1/2.
func (t *digramTable) maybeGrow() {
	if t.n*2 > len(t.slots) && len(t.slots) < maxTableSlots {
		t.resize(2 * len(t.slots))
	}
}

// compact shrinks the slot array to a 1/4 load after mass deletion.
// Cold-rule eviction calls this once per eviction pass; the per-append
// delete path never resizes downward (see the package comment on resize
// thrash).
//
//lint:coldpath one resize per eviction pass, never per record
func (t *digramTable) compact() {
	size := minTableSlots
	for size < t.n*4 {
		size *= 2
	}
	if size < len(t.slots) {
		t.resize(size)
	}
}

// resize rehashes every live entry into a fresh slot array of the given
// power-of-two size, using the cached hashes.
//
//lint:coldpath amortized table resize; runs per doubling or per eviction pass, never per record
func (t *digramTable) resize(size int) {
	old := t.slots
	t.slots = make([]dslot, size)
	t.mask = uint64(size - 1)
	for k := range old {
		if old[k].s == nilSym {
			continue
		}
		i := uint64(old[k].h) & t.mask
		for t.slots[i].s != nilSym {
			i = (i + 1) & t.mask
		}
		t.slots[i] = old[k]
		t.where[old[k].s] = uint32(i) + 1
	}
}

// invariants verifies the table's structural health: power-of-two
// geometry, an accurate entry count, load at or below 1/2, hash-cache
// coherence, probe reachability — every entry's cyclic path from its
// home slot to its resting slot is fully occupied, so lookup cannot stop
// early at a hole (the property backward-shift deletion exists to
// preserve; a bug there strands entries that probes can no longer
// reach) — and that the reverse index and the occupied slots are exact
// inverses. CheckInvariants runs this on every sanitizer sweep.
func (t *digramTable) invariants() error {
	if t.slots == nil {
		return nil
	}
	size := len(t.slots)
	if size < minTableSlots || size&(size-1) != 0 || t.mask != uint64(size-1) {
		return fmt.Errorf("sequitur: digram table geometry corrupt: %d slots, mask %#x", size, t.mask)
	}
	live := 0
	for j := range t.slots {
		if t.slots[j].s == nilSym {
			continue
		}
		live++
		d := t.slots[j].d
		if t.slots[j].h != uint32(t.hash(d)) {
			return fmt.Errorf("sequitur: digram table entry (%x,%x) carries stale hash cache", d.a, d.b)
		}
		home := uint64(t.slots[j].h) & t.mask
		for i := home; i != uint64(j); i = (i + 1) & t.mask {
			if t.slots[i].s == nilSym {
				return fmt.Errorf("sequitur: digram table entry (%x,%x) unreachable: hole at slot %d on its probe path from %d to %d", d.a, d.b, i, home, j)
			}
		}
		if t.owner(t.slots[j].s) != j {
			return fmt.Errorf("sequitur: digram table reverse index maps handle %d to slot %d, entry lives in slot %d",
				t.slots[j].s, t.owner(t.slots[j].s), j)
		}
	}
	if live != t.n {
		return fmt.Errorf("sequitur: digram table count %d != %d live slots", t.n, live)
	}
	if t.n*2 > size && size < maxTableSlots {
		return fmt.Errorf("sequitur: digram table overfull: %d entries in %d slots", t.n, size)
	}
	owners := 0
	for s, w := range t.where {
		if w == 0 {
			continue
		}
		owners++
		if int(w)-1 >= size || t.slots[w-1].s != symID(s) {
			return fmt.Errorf("sequitur: digram table reverse index claims slot %d for handle %d, slot holds handle %d",
				w-1, s, t.slots[w-1].s)
		}
	}
	if owners != t.n {
		return fmt.Errorf("sequitur: digram table reverse index tracks %d owners, table has %d entries", owners, t.n)
	}
	return nil
}
