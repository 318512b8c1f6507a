package sequitur

import "fmt"

// This file implements the grammar's index-addressed arena: symbols live
// in one contiguous pointer-free slice and are named by dense uint32
// handles (symID) instead of machine pointers. The layout is the "10×
// the ingest hot path" ROADMAP item's structural step: a symbol shrinks
// from 32 to 24 bytes, neighbours pack ~2.7 per cache line instead of 2,
// link updates are plain uint32 stores (no GC write barriers), and —
// because the slice contains no pointers at all — the garbage collector
// never scans the symbol graph, where the old layout exposed three heap
// pointers per live symbol to every mark phase.
//
// Handle 0 (nilSym) is reserved as the null link, so handle tests read
// exactly like the pointer tests they replaced. Handles are never
// invalidated, but pointers are: the slice doubles when the
// high-water mark reaches its length, which moves every symbol. A
// *symbol obtained from at() is therefore valid only until the next
// allocSymbol call; code that allocates must re-resolve any handle it
// still needs. Every function in this package already follows that
// discipline (allocation happens first, resolution after), a chunked
// never-moving slab variant was measured slower (the extra dependent
// load in at() on every traversal outweighed the copy-free growth —
// growth copies total well under one memcpy of the final arena size),
// and misuse is caught loudly: a stale pointer's writes land in the
// abandoned backing array, which the repro_sanitize invariant sweep and
// the fuzz targets surface as link corruption. Rules are likewise named
// by uint32 handles (ruleID) indexing a per-grammar slot table; the
// *Rule objects themselves stay ordinary heap values: Grammar.Root and
// Grammar.Rules hand them out, though only tests call either.
//
// Symbols and rules die constantly during construction — every digram
// promotion discards two symbols, rule-utility inlining deletes rules,
// and cold-rule eviction (evict.go) dismantles whole right-hand sides —
// so both kinds are recycled through free lists (a dead symbol's next
// field is repurposed as the list link). Fresh handles are carved from
// the high-water mark; the slice doubles at most log₂(peak) times per
// grammar, off the per-record path.
//
// Recycling is safe because every structure that can name a symbol
// drops its handle before the symbol is freed: the digram table's
// entries are removed at every death site (remove, expand, evictRule,
// inlineCopy all call deleteDigram before freeing — the sanitizer's
// "correctly keyed" invariant guarantees the delete finds the entry),
// and rule references are counted, so a rule is only freed when nothing
// links to it. CheckInvariants and the fuzz targets police exactly this.

// symID is a symbol handle: an index into the arena's symbol slabs.
// nilSym (0) is the null link; slot 0 of the first slab is never handed
// out.
type symID uint32

const nilSym symID = 0

// ruleID is a rule handle: an index into the arena's rule-slot table.
// nilRule (0) marks terminals; slot 0 is never handed out.
type ruleID uint32

const nilRule ruleID = 0

// symInitLen is the arena's starting slice length: 256 symbols × 24
// bytes = 6 KiB, so an empty grammar (one per live session in a server)
// costs kilobytes. The slice doubles as the grammar grows, one copy per
// doubling.
const symInitLen = 1 << 8

// symbolCap is the arena's default handle-space bound. It sits a slack
// band below 1<<32 so Append's single up-front guard (symHigh >=
// symCap) covers every allocation the rest of that Append can perform:
// one append never carves anywhere near 1<<16 fresh handles (its gross
// allocation is a handful of symbols per cascaded rule promotion, and
// frees replenish the free list faster than promotions consume it).
const symbolCap = 1<<32 - 1<<16

// SymbolLimitError is the typed error Append returns when the grammar
// has exhausted its 32-bit symbol handle space: the input is too large
// to represent in one arena. The grammar itself remains valid and
// analyzable; only further growth is refused.
type SymbolLimitError struct {
	// Limit is the handle-space bound that was reached.
	Limit uint64
}

func (e *SymbolLimitError) Error() string {
	return fmt.Sprintf("sequitur: symbol arena full: grammar reached its %d-symbol handle space", e.Limit)
}

// Rule slab chunks start at ruleChunkFirst rules and double per chunk
// up to ruleChunkLen, so a small grammar holds a small slab while a
// large one still pays one allocation per ruleChunkLen rules (rules are
// ~100× rarer than symbols). Chunks never move, so *Rule pointers stay
// valid for the rule's lifetime.
const (
	ruleChunkFirst = 64
	ruleChunkLen   = 1024
)

// arena is the grammar's allocator state.
type arena struct {
	syms    []symbol // the symbol store; index = handle, slot 0 reserved
	symHigh uint32   // next never-used handle; starts at 1 (0 = nilSym)
	symCap  uint32   // handle-space bound; lowered only by tests
	freeSym symID    // free-list head threaded through symbol.next
	nFree   uint32   // free-list length

	ruleSlots []*Rule // handle -> live rule; slot 0 reserved
	freeSlots []ruleID
	ruleChunk []Rule // current rule slab chunk; fresh rules are carved from its spare capacity
	freeRules []*Rule
}

// init prepares an empty arena. Called once per grammar.
//
//lint:coldpath arena construction; runs once per grammar
func (a *arena) init() {
	a.syms = make([]symbol, symInitLen)
	a.symHigh = 1
	a.symCap = symbolCap
	a.ruleSlots = make([]*Rule, 1, 64)
}

// at resolves a symbol handle to its arena slot: one bounds-checked
// index into a contiguous slice. The returned pointer is invalidated by
// the next allocSymbol (the slice may move); see the package comment.
//
//lint:hotpath every link traversal in the SEQUITUR inner loop resolves handles through here
func (a *arena) at(i symID) *symbol {
	return &a.syms[i]
}

// growSyms doubles the symbol store.
//
//lint:coldpath amortized doubling; runs log₂(peak) times per grammar, never per record
func (a *arena) growSyms() {
	ns := make([]symbol, 2*len(a.syms))
	copy(ns, a.syms)
	a.syms = ns
}

// canAlloc reports whether n more symbols fit without exceeding the
// handle-space bound (decoders pre-check untrusted sizes with this).
func (a *arena) canAlloc(n uint64) bool {
	return n <= uint64(a.symCap-a.symHigh)+uint64(a.nFree)
}

// allocSymbol hands out a zeroed symbol handle from the free list or
// the high-water mark. Append's up-front guard keeps the backstop panic
// unreachable; decoders pre-check with canAlloc.
//
//lint:hotpath symbol allocation; runs multiple times per appended terminal
func (a *arena) allocSymbol() symID {
	if si := a.freeSym; si != nilSym {
		s := a.at(si)
		a.freeSym = symID(s.next)
		s.next = nilSym
		a.nFree--
		return si
	}
	i := a.symHigh
	if i >= a.symCap {
		panic(a.limitErr())
	}
	if int(i) == len(a.syms) {
		a.growSyms()
	}
	a.symHigh = i + 1
	return symID(i)
}

// limitErr builds the handle-space exhaustion error. Kept out of the
// hot functions that report it so the literal's heap escape stays off
// their allocation profile (the condition is unreachable until a
// grammar nears 2^32 symbols).
//
//lint:coldpath only constructed when the 32-bit handle space is exhausted
func (a *arena) limitErr() *SymbolLimitError {
	return &SymbolLimitError{Limit: uint64(a.symCap)}
}

// freeSymbol recycles a dead symbol. The caller must have unlinked it
// from its rule and removed any digram-table entry naming it.
func (a *arena) freeSymbol(si symID) {
	s := a.at(si)
	s.prev = nilSym
	s.rule = nilRule
	s.value = 0
	s.next = a.freeSym
	a.freeSym = si
	a.nFree++
}

// growRules replaces the exhausted rule chunk with one twice its size,
// capped at ruleChunkLen. The old chunk stays where it is: its rules are
// still reachable through the slot table and the free list.
//
//lint:coldpath amortized slab growth; runs log₂(ruleChunkLen/ruleChunkFirst) times, then once per ruleChunkLen rule allocations, never per record
func (a *arena) growRules() {
	n := min(max(2*cap(a.ruleChunk), ruleChunkFirst), ruleChunkLen)
	a.ruleChunk = make([]Rule, 0, n)
}

// growFreeRules grows the rule free list's backing slice.
//
//lint:coldpath amortized append growth; runs per freed rule, not per record, and reuses capacity
func (a *arena) growFreeRules(r *Rule) {
	a.freeRules = append(a.freeRules, r)
}

// growFreeSlots grows the rule-slot free list's backing slice.
//
//lint:coldpath amortized append growth; runs per freed rule, not per record, and reuses capacity
func (a *arena) growFreeSlots(h ruleID) {
	a.freeSlots = append(a.freeSlots, h)
}

// growRuleSlots appends a fresh rule slot.
//
//lint:coldpath amortized append growth; runs per new rule, not per record
func (a *arena) growRuleSlots(r *Rule) ruleID {
	a.ruleSlots = append(a.ruleSlots, r)
	return ruleID(len(a.ruleSlots) - 1)
}

// allocRule hands out a zeroed rule bound to a handle slot.
func (a *arena) allocRule() *Rule {
	var r *Rule
	if n := len(a.freeRules); n > 0 {
		r = a.freeRules[n-1]
		a.freeRules = a.freeRules[:n-1]
	} else {
		if len(a.ruleChunk) == cap(a.ruleChunk) {
			a.growRules()
		}
		a.ruleChunk = a.ruleChunk[:len(a.ruleChunk)+1]
		r = &a.ruleChunk[len(a.ruleChunk)-1]
	}
	if n := len(a.freeSlots); n > 0 {
		r.self = a.freeSlots[n-1]
		a.freeSlots = a.freeSlots[:n-1]
		a.ruleSlots[r.self] = r
	} else {
		r.self = a.growRuleSlots(r)
	}
	return r
}

// freeRule recycles a dead rule, its guard symbol, and its handle slot.
// The caller must have deleted the rule from the rule table and
// dismantled its right-hand side (nothing may reference the rule
// anymore).
func (a *arena) freeRule(r *Rule) {
	if r.guard != nilSym {
		a.freeSymbol(r.guard)
	}
	a.ruleSlots[r.self] = nil
	a.growFreeSlots(r.self)
	r.guard = nilSym
	r.self = nilRule
	r.uses = 0
	r.id = 0
	a.growFreeRules(r)
}
