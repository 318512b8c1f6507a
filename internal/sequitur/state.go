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
// rule IDs, the next-ID counter, the digram table, and the relaxed
// flag — so a grammar restored on another shard continues exactly where
// the source left off:
// appending a sequence to the restored grammar produces structure
// identical to appending it to the original. That holds for every live
// grammar, including relaxed (evicted) ones, because the digram table
// is serialized explicitly rather than rebuilt.
//
// Why explicit: the table is history the structure cannot reproduce.
// In a run "x x x" the table holds one of the two overlapping (x, x)
// pairs, and which one depends on how the run formed (naive_test.go's
// oracle models the rule); eviction unregisters digrams without
// structural trace. Each entry therefore travels as (digram, rule ID,
// position).
//
// Live grammars are classic SEQUITUR: the SEQUITUR(k) variant
// (Options.MinRuleOccurrences > 2) is batch-only. The header keeps a
// min-rule-occurrences field and the body a pending-digram count, and
// both are always 2 and 0, so the classic state bytes are unchanged;
// WriteState refuses a k > 2 grammar and ReadState any other value.
//
// Nothing on the wire names arena handles: rules travel by public ID
// and table entries by (rule ID, RHS position), so the encoding is
// identical no matter how the source grammar's symbols were laid out,
// and a decoder lays out its own arena however it likes.

var stateMagic = [4]byte{'W', 'P', 'S', 'L'} // "L" for live

const stateVersion = 1

// stateMinRuleOccurrences is the only min-rule-occurrences value the
// state form carries.
const stateMinRuleOccurrences = 2

// symPos names one symbol occurrence: its owning rule and zero-based
// position within that rule's right-hand side.
type symPos struct{ rule, idx uint64 }

// noPos marks a handle that sits in no right-hand side: a guard, a free
// symbol, or the reserved nil handle. No real position reaches it.
const noPos = math.MaxUint64

// symbolPositions indexes every RHS symbol occurrence by handle; a slot
// whose idx is noPos is in no rule body.
func (g *Grammar) symbolPositions() []symPos {
	where := make([]symPos, len(g.arena.syms))
	for i := range where {
		where[i].idx = noPos
	}
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
// have no live state to write and are rejected, as are SEQUITUR(k)
// grammars with k > 2, which are batch-only.
func (g *Grammar) WriteState(w io.Writer) (int64, error) {
	if g.frozen {
		return 0, errors.New("sequitur: frozen grammar has no live state")
	}
	if g.opts.MinRuleOccurrences != stateMinRuleOccurrences {
		return 0, fmt.Errorf("sequitur: SEQUITUR(k) grammar (k = %d) has no live state", g.opts.MinRuleOccurrences)
	}
	// The digram table: every entry as (digram, occurrence locator),
	// sorted by digram for determinism.
	where := g.symbolPositions()
	type tabEntry struct {
		d digram
		p symPos
	}
	entries := make([]tabEntry, 0, g.digrams.len())
	var badEntry digram
	bad := false
	g.digrams.all(func(d digram, s symID) bool {
		if int(s) >= len(where) || where[s].idx == noPos {
			badEntry, bad = d, true
			return false
		}
		entries = append(entries, tabEntry{d, where[s]})
		return true
	})
	if bad {
		return 0, fmt.Errorf("sequitur: digram table entry (%d,%d) points at an unlinked symbol", badEntry.a, badEntry.b)
	}
	sort.Slice(entries, func(i, j int) bool { return digramLess(entries[i].d, entries[j].d) })

	ww := wire.NewWriter(w, stateMagic)
	for _, v := range []uint64{stateVersion, stateMinRuleOccurrences} {
		ww.Uvarint(v)
	}
	ww.Bool(g.relaxed)
	for _, v := range []uint64{g.input, g.nextID, g.root.id, uint64(g.nRules)} {
		ww.Uvarint(v)
	}
	// Each rule's symbols are walked in place, once to count and once
	// to write, so the encode allocates nothing per rule.
	for _, r := range g.liveRulesSorted() {
		n := uint64(0)
		for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
			n++
		}
		ww.Uvarint(r.id)
		ww.Uvarint(n)
		for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
			if s := g.at(si); s.rule != nilRule {
				ww.Uvarint(g.ruleAt(s.rule).id<<1 | 1)
			} else {
				ww.Uvarint(s.value << 1)
			}
		}
	}
	ww.Uvarint(0) // pending digrams
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
// captured: rules keep their original IDs and the digram table points
// at the same occurrences. A decoded grammar passes CheckInvariants, or
// ReadState fails.
func ReadState(r io.Reader) (*Grammar, error) {
	rd := wire.NewReader(r, "sequitur: state", stateMagic)
	if v := rd.Uvarint("version"); rd.Err() == nil && v != stateVersion {
		rd.Failf("version %d, this build supports %d", v, stateVersion)
	}
	if v := rd.Uvarint("min-rule-occurrences"); rd.Err() == nil && v != stateMinRuleOccurrences {
		rd.Failf("min-rule-occurrences %d, live grammars use %d", v, stateMinRuleOccurrences)
	}
	relaxed := rd.Bool("flags")
	input := rd.Uvarint("input length")
	nextID := rd.Uvarint("next rule id")
	rootID := rd.Uvarint("root id")
	nRules := rd.Count("rule count", 1<<28)
	if rd.Err() == nil && nRules == 0 {
		rd.Failf("no rules")
	}
	g := &Grammar{
		opts:    Options{MinRuleOccurrences: stateMinRuleOccurrences},
		relaxed: relaxed,
		nextID:  nextID,
	}
	g.arena.init()

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

	if n := rd.Uvarint("pending count"); rd.Err() == nil && n != 0 {
		rd.Failf("%d pending digrams in a classic SEQUITUR grammar", n)
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
