package sequitur

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// This file implements the live-grammar state codec: the serialization
// behind session handoff in the sharded deployment. Unlike the WPS1
// binary form (codec.go), which renumbers rules in postorder and drops
// the digram index (loaded grammars are frozen), the state form
// preserves everything Append's future behaviour depends on — original
// rule IDs, the next-ID counter, the digram table, the SEQUITUR(k)
// pending-digram counts, and the relaxed flag — so a grammar restored
// on another shard continues exactly where the source left off:
// appending a sequence to the restored grammar produces structure
// identical to appending it to the original. That holds for every live
// grammar, including relaxed (evicted) ones, because the digram table
// is serialized explicitly rather than rebuilt.
//
// Why explicit: for a canonical MinRuleOccurrences=2 grammar the table
// is a pure function of structure (digram uniqueness; overlapping runs
// register their first pair) and could be rebuilt by scanning rule
// bodies. But SEQUITUR(k) deferral re-points entries at the most
// recent sighting and leaves un-substituted early sightings behind,
// and eviction unregisters digrams without structural trace — in both
// regimes the table is history the structure cannot reproduce. Each
// entry therefore travels as (digram, rule ID, position).
//
// Nothing on the wire names arena handles: rules travel by public ID
// and table entries by (rule ID, RHS position), so the encoding is
// identical no matter how the source grammar's symbols were laid out,
// and a decoder lays out its own arena however it likes.

var stateMagic = [4]byte{'W', 'P', 'S', 'L'} // "L" for live

const stateVersion = 1

// symPos names one symbol occurrence: its owning rule and zero-based
// position within that rule's right-hand side.
type symPos struct{ rule, idx uint64 }

// symbolPositions indexes every RHS symbol occurrence by handle.
func (g *Grammar) symbolPositions() map[symID]symPos {
	where := make(map[symID]symPos, int(g.input))
	g.eachRule(func(r *Rule) {
		i := uint64(0)
		for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
			where[si] = symPos{r.id, i}
			i++
		}
	})
	return where
}

// WriteState encodes the grammar's full live state, returning the
// number of bytes written. Frozen grammars (loaded with ReadBinary)
// have no live state to write and are rejected.
func (g *Grammar) WriteState(w io.Writer) (int64, error) {
	if g.frozen {
		return 0, errors.New("sequitur: frozen grammar has no live state")
	}
	// The digram table: every entry as (digram, occurrence locator),
	// sorted by digram for determinism.
	where := g.symbolPositions()
	type tabEntry struct {
		d digram
		p symPos
	}
	entries := make([]tabEntry, 0, g.digrams.len())
	var badEntry *digram
	g.digrams.all(func(d digram, s symID) bool {
		p, ok := where[s]
		if !ok {
			badEntry = &d
			return false
		}
		entries = append(entries, tabEntry{d, p})
		return true
	})
	if badEntry != nil {
		return 0, fmt.Errorf("sequitur: digram table entry (%d,%d) points at an unlinked symbol", badEntry.a, badEntry.b)
	}
	sort.Slice(entries, func(i, j int) bool { return digramLess(entries[i].d, entries[j].d) })

	ww := wire.NewWriter(w, stateMagic)
	for _, v := range []uint64{stateVersion, uint64(g.opts.MinRuleOccurrences)} {
		ww.Uvarint(v)
	}
	ww.Bool(g.relaxed)
	for _, v := range []uint64{g.input, g.nextID, g.root.id, uint64(g.nRules)} {
		ww.Uvarint(v)
	}
	for _, r := range g.liveRulesSorted() {
		rhs := r.RHS()
		ww.Uvarint(r.id)
		ww.Uvarint(uint64(rhs.Len()))
		for i, ref := range rhs.Refs {
			if ref != nil {
				ww.Uvarint(ref.id<<1 | 1)
			} else {
				ww.Uvarint(rhs.Terminals[i] << 1)
			}
		}
	}
	// Pending digram sightings (SEQUITUR(k) only), sorted for a
	// deterministic encoding; keys embed rule IDs, which the rule
	// section above preserves verbatim.
	pend := make([]digram, 0, len(g.pending))
	for d := range g.pending {
		pend = append(pend, d)
	}
	sort.Slice(pend, func(i, j int) bool { return digramLess(pend[i], pend[j]) })
	ww.Uvarint(uint64(len(pend)))
	for _, d := range pend {
		for _, v := range []uint64{d.a, d.b, uint64(g.pending[d])} {
			ww.Uvarint(v)
		}
	}
	ww.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		for _, v := range []uint64{e.d.a, e.d.b, e.p.rule, e.p.idx} {
			ww.Uvarint(v)
		}
	}
	return ww.Close()
}

func digramLess(x, y digram) bool {
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// ReadState decodes a grammar from its live-state form. The result is
// fully appendable and behaves exactly like the grammar WriteState
// captured: rules keep their original IDs, the digram table points at
// the same occurrences, and pending SEQUITUR(k) counts are restored.
// A decoded grammar passes CheckInvariants, or ReadState fails.
func ReadState(r io.Reader) (*Grammar, error) {
	rd := wire.NewReader(r, "sequitur: state", stateMagic)
	if v := rd.Uvarint("version"); rd.Err() == nil && v != stateVersion {
		rd.Failf("version %d, this build supports %d", v, stateVersion)
	}
	minOcc := max(rd.Count("min-rule-occurrences", math.MaxInt32), 2)
	relaxed := rd.Bool("flags")
	input := rd.Uvarint("input length")
	nextID := rd.Uvarint("next rule id")
	rootID := rd.Uvarint("root id")
	nRules := rd.Count("rule count", 1<<28)
	if rd.Err() == nil && nRules == 0 {
		rd.Failf("no rules")
	}
	g := &Grammar{
		opts:    Options{MinRuleOccurrences: int(minOcc)},
		relaxed: relaxed,
		nextID:  nextID,
	}
	g.arena.init()
	if minOcc > 2 {
		g.pending = make(map[digram]int)
	}

	// Pass 1: every rule's ID and raw body. A body may reference rules
	// in either direction, so all rules materialize before any body
	// links. Nothing is sized by a claimed count: the slices grow only
	// as the input delivers.
	var (
		rules  []*Rule
		byID   = make(map[uint64]int) // rule ID -> index into rules
		syms   []uint64               // every body, concatenated
		starts = []int{0}             // rule i's body is syms[starts[i]:starts[i+1]]
	)
	for i := uint64(0); i < nRules && rd.Err() == nil; i++ {
		id := rd.Uvarint("rule id")
		rhsLen := rd.Count("rule length", math.MaxUint32)
		if _, dup := byID[id]; dup {
			rd.Failf("rule id %d duplicated", id)
		}
		switch {
		case id >= nextID:
			rd.Failf("rule id %d >= next id %d", id, nextID)
		case rhsLen == 0 && id != rootID:
			rd.Failf("rule %d has empty right-hand side", id)
		case !g.arena.canAlloc(uint64(len(syms)) + rhsLen + 1):
			rd.Failf("rule %d length %d overflows the symbol arena", id, rhsLen)
		}
		for j := uint64(0); j < rhsLen && rd.Err() == nil; j++ {
			syms = append(syms, rd.Uvarint("rule symbol"))
		}
		if rd.Err() != nil {
			break
		}
		byID[id] = len(rules)
		rules = append(rules, g.materializeRule(id))
		starts = append(starts, len(syms))
	}
	root, ok := byID[rootID]
	if rd.Err() == nil && !ok {
		rd.Failf("root rule %d missing", rootID)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	g.root = rules[root]

	// Pass 2: link the bodies and count uses. handles[j] is the arena
	// handle of syms[j], so a digram entry below resolves its position
	// by index.
	handles := make([]symID, len(syms))
	for i, r := range rules {
		for j := starts[i]; j < starts[i+1]; j++ {
			sv := syms[j]
			si := g.arena.allocSymbol()
			s := g.at(si)
			if sv&1 == 1 {
				k, ok := byID[sv>>1]
				if !ok {
					rd.Failf("rule %d references unknown rule %d", r.id, sv>>1)
					return nil, rd.Err()
				}
				ref := rules[k]
				s.rule = ref.self
				s.value = ntBit | ref.id
				ref.uses++
			} else {
				if v := sv >> 1; v&(ntBit|guardBit) != 0 {
					rd.Failf("rule %d symbol %d: terminal uses reserved bits", r.id, j-starts[i])
					return nil, rd.Err()
				}
				s.value = sv >> 1
			}
			gs := g.at(r.guard)
			last := gs.prev
			g.at(last).next = si
			s.prev = last
			s.next = r.guard
			gs.prev = si
			handles[j] = si
		}
	}

	// Pending digram counts.
	nPend := rd.Uvarint("pending count")
	if nPend > 0 && g.pending == nil {
		rd.Failf("%d pending digrams but min-rule-occurrences %d", nPend, minOcc)
	}
	for i := uint64(0); i < nPend && rd.Err() == nil; i++ {
		a, b := rd.Uvarint("pending digram a"), rd.Uvarint("pending digram b")
		g.pending[digram{a, b}] = int(rd.Uvarint("pending digram count"))
	}

	// Digram table: each entry re-points at the recorded occurrence,
	// validated against the linked structure.
	nTab := rd.Count("digram table size", uint64(len(syms)))
	g.digrams.init(len(syms))
	for i := uint64(0); i < nTab && rd.Err() == nil; i++ {
		d := digram{rd.Uvarint("digram entry a"), rd.Uvarint("digram entry b")}
		rid, idx := rd.Uvarint("digram entry rule"), rd.Uvarint("digram entry position")
		if rd.Err() != nil {
			break
		}
		k, ok := byID[rid]
		if !ok {
			rd.Failf("digram entry (%d,%d) names unknown rule %d", d.a, d.b, rid)
			break
		}
		body := handles[starts[k]:starts[k+1]]
		if len(body) < 2 || idx > uint64(len(body)-2) {
			rd.Failf("digram entry (%d,%d) position %d out of range in rule %d", d.a, d.b, idx, rid)
			break
		}
		si := body[idx]
		if (digram{g.at(si).value, g.at(body[idx+1]).value}) != d {
			rd.Failf("digram entry (%d,%d) names a different digram at rule %d position %d", d.a, d.b, rid, idx)
		}
		if g.digrams.lookup(d) != nilSym {
			rd.Failf("digram entry (%d,%d) duplicated", d.a, d.b)
		}
		g.digrams.set(d, si)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	g.input = input
	if err := CheckInvariants(g); err != nil {
		return nil, fmt.Errorf("sequitur: state: %w", err)
	}
	return g, nil
}
