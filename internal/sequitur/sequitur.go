// Package sequitur implements the SEQUITUR hierarchical compression
// algorithm of Nevill-Manning and Witten ("Linear-time, incremental
// hierarchy inference for compression", DCC 1997), which the paper uses to
// build Whole Program Streams from abstracted data-reference traces (§3).
//
// SEQUITUR is an online, linear-time algorithm that infers a context-free
// grammar generating exactly its input sequence, maintaining two
// invariants:
//
//   - digram uniqueness: no pair of adjacent symbols appears more than
//     once in the grammar, and
//   - rule utility: every rule other than the root is referenced at least
//     twice.
//
// The grammar doubles as a DAG (see dag.go) whose nodes are rules, which is
// the Whole Program Stream representation analyzed without decompression.
//
// A dynamic sanitizer guards these invariants: CheckInvariants (sanitize.go)
// sweeps a grammar for digram-table, link, use-count and length corruption,
// tests and fuzz targets call it directly, and building with the
// repro_sanitize tag runs it after every Append in the hot construction
// path.
package sequitur

import (
	"fmt"
	"slices"
)

// A symbol is a node in the doubly-linked list forming a rule's right-hand
// side. A symbol is either a terminal (rule == nilRule), a nonterminal
// referencing a rule (rule != nilRule, guardBit clear), or a rule's guard
// node (guardBit set in value). Guard nodes make every RHS circular:
// guard.next is the first symbol, guard.prev the last.
//
// Symbols live in the grammar's arena (arena.go) and link to each other
// by uint32 handle, not by pointer: the struct is 24 bytes of plain
// integers, so ~2.7 neighbours share a cache line, link rewrites are
// uint32 stores with no GC write barrier, and the garbage collector
// never scans the symbol graph at all. Resolve a handle with g.at —
// and re-resolve after any allocation, which may move the arena.
type symbol struct {
	next, prev symID
	// rule is the handle of the referenced rule (nonterminal) or the
	// owning rule (guard); nilRule for terminals. Handles index the
	// arena's rule-slot table, not the public rule-ID space.
	rule ruleID
	// value caches the symbol's digram key: the terminal value, or the
	// referenced rule's public ID with ntBit set. Guard nodes additionally
	// carry guardBit (over the owning rule's ID), so guardhood is a bit
	// test rather than a dedicated field. Every site that assigns rule
	// keeps value in sync, making key() a single load on the Append hot
	// path.
	value uint64
}

// isGuard reports whether s is a rule's guard node.
func (s *symbol) isGuard() bool { return s.value&guardBit != 0 }

// Rule is a grammar production. Rule 0 is the root (the whole sequence);
// every other rule is referenced at least twice. Rules are small and
// handed out by pointer (the analysis API exposes *Rule), but their
// right-hand sides are arena symbols reached through the guard handle.
type Rule struct {
	g     *Grammar
	id    uint64
	guard symID
	self  ruleID // this rule's slot in the arena's rule-slot table
	uses  int32  // reference count from nonterminal symbols
}

// ID returns the rule's identifier. The root rule has ID 0.
func (r *Rule) ID() uint64 { return r.id }

// Uses returns the number of nonterminal references to the rule. The root
// reports 0.
func (r *Rule) Uses() int { return int(r.uses) }

func (r *Rule) first() symID { return r.g.at(r.guard).next }
func (r *Rule) last() symID  { return r.g.at(r.guard).prev }

// nonterminal bit distinguishes rule IDs from terminal values in digram
// keys, and the guard bit marks guard nodes. Terminals must therefore
// stay below 1<<62, which the WPS symbol space guarantees.
const (
	ntBit    = uint64(1) << 63
	guardBit = uint64(1) << 62
)

// key returns the digram-table key for a symbol: the terminal value, or the
// rule ID with the nonterminal bit set (cached in value by every site that
// assigns rule).
func (s *symbol) key() uint64 { return s.value }

type digram struct{ a, b uint64 }

// Options configures grammar construction.
type Options struct {
	// MinRuleOccurrences is the number of times a digram must be seen
	// before a new rule is created for it. The classic algorithm uses 2.
	// Setting 3 delays rule creation to a digram's third sighting: a
	// rule-promotion threshold, not the one-symbol lookahead of Larus's
	// SEQUITUR(1) that §3.2 cites. The ablation benchmark asks of it
	// what the paper asks of SEQUITUR(1): are the grammars
	// significantly smaller? The variant is batch-only; the state codec
	// (state.go) refuses it, so live grammars are classic SEQUITUR.
	MinRuleOccurrences int
}

// Grammar is a SEQUITUR grammar under construction or analysis.
type Grammar struct {
	root    *Rule
	digrams digramTable
	// nRules counts live rules (including the root). There is no id->rule
	// map: the arena's rule-slot table is the registry (iterate with
	// eachRule / liveRulesSorted), which keeps rule creation and deletion
	// — both per-record events under digram promotion and utility
	// inlining — free of map traffic. Cold paths that want id-keyed
	// lookup (the decoders, the sanitizer) build a local map.
	nRules int
	nextID uint64
	input  uint64 // number of terminals appended
	opts   Options
	// frozen marks grammars loaded from the binary form: analyzable but
	// not appendable (the digram index is not reconstructed).
	frozen bool
	// relaxed marks grammars that have undergone cold-rule eviction
	// (evict.go): still appendable and exact, but digram uniqueness and
	// digram-table completeness no longer hold.
	relaxed bool
	// pending counts sightings of digrams not yet promoted to rules when
	// MinRuleOccurrences > 2.
	pending map[digram]int
	// arena is the handle-addressed slab allocator symbols and rules come
	// from (arena.go); it keeps steady-state Append free of per-record
	// heap allocations and the symbol graph invisible to the GC.
	arena arena
}

// at resolves a symbol handle to its arena slot. The returned pointer is
// invalidated by the next symbol allocation (the arena slice may move);
// fetch after allocating, never before (see arena.go).
//
//lint:hotpath every link traversal in the SEQUITUR inner loop resolves handles through here
func (g *Grammar) at(i symID) *symbol { return g.arena.at(i) }

// ruleAt resolves a rule handle to its live *Rule.
//
//lint:hotpath nonterminal use-count updates resolve rule handles through here
func (g *Grammar) ruleAt(h ruleID) *Rule { return g.arena.ruleSlots[h] }

// New returns an empty grammar using the classic algorithm.
func New() *Grammar { return NewWithOptions(Options{MinRuleOccurrences: 2}) }

// NewWithOptions returns an empty grammar with explicit options.
func NewWithOptions(opts Options) *Grammar {
	if opts.MinRuleOccurrences < 2 {
		opts.MinRuleOccurrences = 2
	}
	g := &Grammar{opts: opts}
	g.arena.init()
	g.digrams.init(digramInitHint)
	if opts.MinRuleOccurrences > 2 {
		g.pending = make(map[digram]int)
	}
	g.root = g.newRule()
	return g
}

// materializeRule allocates a rule with the given public ID and an empty
// circular right-hand side, and registers it in the rule table. Shared by
// construction (newRule) and the two decoders.
func (g *Grammar) materializeRule(id uint64) *Rule {
	r := g.arena.allocRule()
	r.g = g
	r.id = id
	gi := g.arena.allocSymbol()
	gs := g.at(gi)
	gs.rule = r.self
	gs.value = ntBit | guardBit | id
	gs.next = gi
	gs.prev = gi
	r.guard = gi
	g.nRules++
	return r
}

func (g *Grammar) newRule() *Rule {
	r := g.materializeRule(g.nextID)
	g.nextID++
	return r
}

// deleteRule unregisters a rule. The rule's storage is recycled
// separately (arena.freeRule) once its right-hand side has been
// dismantled or relinked and nothing references it; freeRule clears the
// arena slot, which is what removes the rule from iteration.
func (g *Grammar) deleteRule(r *Rule) { g.nRules-- }

// eachRule calls fn for every live rule, root included, in arena-slot
// order. Slot recycling makes that order history-dependent; callers
// needing a stable order use liveRulesSorted.
func (g *Grammar) eachRule(fn func(*Rule)) {
	for _, r := range g.arena.ruleSlots {
		if r != nil {
			fn(r)
		}
	}
}

// liveRulesSorted returns the live rules in ascending ID order: the
// deterministic iteration serialization and eviction depend on.
func (g *Grammar) liveRulesSorted() []*Rule {
	out := make([]*Rule, 0, g.nRules)
	g.eachRule(func(r *Rule) { out = append(out, r) })
	slices.SortFunc(out, func(a, b *Rule) int {
		switch {
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	return out
}

// Root returns the root rule, whose expansion is the input sequence.
func (g *Grammar) Root() *Rule { return g.root }

// InputLen returns the number of terminals appended so far.
func (g *Grammar) InputLen() uint64 { return g.input }

// NumRules returns the number of live rules, including the root.
func (g *Grammar) NumRules() int { return g.nRules }

// Append feeds one terminal to the grammar. Values must be below 1<<62.
// It panics on grammars loaded with ReadBinary, which are read-only, and
// returns a *SymbolLimitError once the grammar has exhausted its 32-bit
// symbol handle space (the grammar stays valid; only growth is refused).
//
//lint:hotpath called once per trace event; the paper's online SEQUITUR inner loop
func (g *Grammar) Append(v uint64) error {
	if g.frozen {
		panic(ErrFrozen)
	}
	if v&(ntBit|guardBit) != 0 {
		panic("sequitur: terminal value uses reserved nonterminal bit")
	}
	// One guard covers every allocation this append can cascade into:
	// symbolCap leaves slack below the handle-space ceiling far wider
	// than a single append's worst-case fresh-handle consumption.
	if g.arena.symHigh >= g.arena.symCap {
		return g.arena.limitErr()
	}
	g.input++
	si := g.arena.allocSymbol()
	s := g.at(si)
	s.value = v
	g.insertAfter(g.root.last(), si)
	g.check(s.prev)
	if sanitizeHot && (g.input <= sanitizeDense || g.input%sanitizeStride == 0) {
		if err := CheckInvariants(g); err != nil {
			panic(fmt.Sprintf("sequitur: invariant violated after appending input[%d]=%d: %v", g.input-1, v, err))
		}
	}
	return nil
}

// AppendAll feeds each value in order, stopping at the first error.
func (g *Grammar) AppendAll(vs []uint64) error {
	for _, v := range vs {
		if err := g.Append(v); err != nil {
			return err
		}
	}
	return nil
}

// join links left and right, maintaining the digram table. This is the
// canonical implementation including the overlapping-triple repair (for
// inputs like "abbbab", deleting the second pair of an overlapping digram
// must re-register the first). Callers pass the resolved symbols
// alongside the handles — every caller already holds them, and the inner
// loop performs several joins per appended terminal.
func (g *Grammar) join(left, right symID, ls, rs *symbol) {
	if ls.next != nilSym {
		g.deleteDigram(left)

		if rs.prev != nilSym && rs.next != nilSym &&
			rs.value == g.at(rs.prev).value && rs.value == g.at(rs.next).value {
			g.digrams.set(digram{rs.value, g.at(rs.next).value}, right)
		}
		if ls.prev != nilSym && ls.next != nilSym &&
			ls.value == g.at(ls.next).value && ls.value == g.at(ls.prev).value {
			g.digrams.set(digram{g.at(ls.prev).value, ls.value}, ls.prev)
		}
	}
	ls.next = right
	rs.prev = left
}

// insertAfter places a fresh symbol si after position pos.
func (g *Grammar) insertAfter(pos, si symID) {
	s := g.at(si)
	if s.rule != nilRule && !s.isGuard() {
		g.ruleAt(s.rule).uses++
	}
	p := g.at(pos)
	ni := p.next
	g.join(si, ni, s, g.at(ni))
	g.join(pos, si, p, s)
}

// remove unlinks si from its rule, cleaning up the digram table and rule
// reference counts, and recycles the symbol. It must not be called on
// guards, and the caller must not touch si afterwards.
func (g *Grammar) remove(si symID) {
	s := g.at(si)
	pi, ni := s.prev, s.next
	g.join(pi, ni, g.at(pi), g.at(ni))
	g.deleteDigram(si)
	if s.rule != nilRule && !s.isGuard() {
		g.ruleAt(s.rule).uses--
	}
	s.next, s.prev = nilSym, nilSym
	g.arena.freeSymbol(si)
}

// deleteDigram removes the digram starting at si from the table if the
// table entry points at si. The table's reverse index resolves this with
// one load — no hashing, no probing, and no need to touch si's links
// (guards are never registered, so the old guard/end checks are
// subsumed).
func (g *Grammar) deleteDigram(si symID) {
	g.digrams.removeOwner(si)
}

// check enforces digram uniqueness for the digram beginning at si. It
// returns true if the grammar changed.
func (g *Grammar) check(si symID) bool {
	if si == nilSym {
		return false
	}
	s := g.at(si)
	if s.isGuard() || s.next == nilSym {
		return false
	}
	n := g.at(s.next)
	if n.isGuard() {
		return false
	}
	d := digram{s.value, n.value}
	found := g.digrams.lookupOrInsert(d, si)
	if found == nilSym || found == si {
		return false
	}
	if g.at(found).next != si {
		// A non-overlapping duplicate: resolve it. (For an overlapping
		// occurrence, e.g. within "aaa", do nothing — but still report
		// the digram as handled, matching the canonical implementation.)
		g.match(si, found)
	}
	return true
}

// match resolves a duplicate digram: si is the new occurrence, mi the
// occurrence recorded in the table.
func (g *Grammar) match(si, mi symID) {
	var r *Rule
	m := g.at(mi)
	mp := g.at(m.prev)
	if mp.isGuard() && g.at(g.at(m.next).next).isGuard() {
		// The matching digram is the entire RHS of an existing rule:
		// reuse it.
		r = g.ruleAt(mp.rule)
		g.substitute(si, r)
	} else {
		if g.pending != nil {
			// SEQUITUR(k) variant: require additional sightings before
			// promoting a brand-new digram to a rule. A digram has been
			// seen pending+2 times when match fires (once when first
			// recorded, once now, plus prior deferrals).
			s := g.at(si)
			d := digram{s.value, g.at(s.next).value}
			if g.pending[d]+2 < g.opts.MinRuleOccurrences {
				g.pending[d]++
				g.digrams.set(d, si) // remember the most recent occurrence
				return
			}
			delete(g.pending, d)
		}
		r = g.newRule()
		g.insertAfter(r.last(), g.copySymbol(si))
		g.insertAfter(r.last(), g.copySymbol(g.at(si).next))
		g.substitute(mi, r)
		g.substitute(si, r)
		fi := r.first()
		g.digrams.set(digram{g.at(fi).value, g.at(g.at(fi).next).value}, fi)
	}
	// Rule utility: if the rule's first symbol is a nonterminal used only
	// once, inline it.
	fi := r.first()
	if f := g.at(fi); f.rule != nilRule && !f.isGuard() && g.ruleAt(f.rule).uses == 1 {
		g.expand(fi)
	}
}

// copySymbol returns a fresh symbol with the same content as si, without
// touching reference counts (insertAfter handles those).
func (g *Grammar) copySymbol(si symID) symID {
	ci := g.arena.allocSymbol()
	c := g.at(ci)
	s := g.at(si)
	c.value = s.value
	c.rule = s.rule
	return ci
}

// substitute replaces the digram starting at si with a nonterminal
// referencing r, then re-checks the neighbouring digrams.
func (g *Grammar) substitute(si symID, r *Rule) {
	qi := g.at(si).prev
	g.remove(g.at(qi).next)
	g.remove(g.at(qi).next)
	nti := g.arena.allocSymbol()
	nt := g.at(nti)
	nt.rule = r.self
	nt.value = ntBit | r.id
	g.insertAfter(qi, nti)
	if !g.check(qi) {
		g.check(g.at(qi).next)
	}
}

// expand inlines the rule referenced by nonterminal si (which must be its
// only use), deleting the rule. The nonterminal, the rule, and its guard
// are dead afterwards and recycled; the rule's right-hand-side symbols
// live on, spliced into si's rule.
func (g *Grammar) expand(si symID) {
	s := g.at(si)
	left := s.prev
	right := s.next
	r := g.ruleAt(s.rule)
	fi := r.first()
	li := r.last()

	g.deleteDigram(si)
	g.deleteRule(r)
	r.uses--
	s.next, s.prev, s.rule = nilSym, nilSym, nilRule

	g.join(left, fi, g.at(left), g.at(fi))
	g.join(li, right, g.at(li), g.at(right))

	l := g.at(li)
	if !l.isGuard() && !g.at(l.next).isGuard() {
		g.digrams.set(digram{l.value, g.at(l.next).value}, li)
	}

	// Nothing points at si, r, or r's guard anymore: the joins relinked
	// fi's prev and li's next away from the guard, deleteDigram dropped
	// the only table entry that could point at si, and r's sole use was
	// si.
	g.arena.freeSymbol(si)
	g.arena.freeRule(r)
}

// Rules returns all live rules indexed by ID.
func (g *Grammar) Rules() map[uint64]*Rule {
	out := make(map[uint64]*Rule, g.nRules)
	g.eachRule(func(r *Rule) { out[r.id] = r })
	return out
}

// Expand reconstructs the full input sequence: the expansion of the
// root, as NewDAG(g, 1).Expand() computes it. The grammar stays
// appendable.
func (g *Grammar) Expand() []uint64 { return NewDAG(g, 1).Expand() }

// CheckInvariants verifies the grammar's structural invariants — digram
// uniqueness, rule utility, link coherence, expansion lengths — returning
// a descriptive error on the first violation. It delegates to the
// package-level CheckInvariants; see sanitize.go for the full check list.
func (g *Grammar) CheckInvariants() error { return CheckInvariants(g) }
