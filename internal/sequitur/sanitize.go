package sequitur

import "fmt"

// Under the repro_sanitize build tag, Append runs the full invariant sweep
// after every terminal while the grammar holds at most sanitizeDense
// terminals (the regime fuzz inputs live in), then at every
// sanitizeStride-th append, keeping tagged test runs near the untagged
// asymptotics.
const (
	sanitizeDense  = 512
	sanitizeStride = 512
)

// CheckInvariants verifies the structural health of a grammar, returning a
// descriptive error for the first violation found. It is the dynamic
// sanitizer counterpart of the static checks in internal/lint: tests and
// fuzz targets call it directly, and builds with the repro_sanitize tag run
// it after every Append (see sanitize_on.go).
//
// The checks, in order:
//
//   - root registration: the root rule is present in the rule table;
//   - rule-slot coherence: every rule's arena handle resolves back to the
//     rule itself;
//   - guard coherence: every rule's guard node is marked and points back at
//     its rule;
//   - link coherence: every right-hand side is a properly doubly-linked
//     circle back to its own guard, with a step cap so a broken guard link
//     is reported rather than looped on;
//   - terminal range: no terminal value uses the reserved nonterminal bit;
//   - dangling references: nonterminals reference live rule slots, and the
//     exact *Rule registered in the table (not a stale copy);
//   - digram uniqueness: no digram occurs twice (overlapping runs like
//     "aaa" excepted), skipped for SEQUITUR(k) grammars with pending
//     digrams and for grammars relaxed by cold-rule eviction (evict.go),
//     where uniqueness is intentionally given up;
//   - digram table structure (non-frozen grammars only): power-of-two
//     geometry, accurate count, load at or below 1/2, and probe
//     reachability of every entry (digramTable.invariants);
//   - digram table validity and completeness (non-frozen grammars only):
//     every table entry points at a linked, correctly-keyed symbol, and —
//     when no digrams are pending and the grammar is not relaxed — every
//     digram in the grammar has a table entry;
//   - rule utility: every rule but the root is referenced at least twice
//     (again skipped while digrams are pending). Relaxed grammars are held
//     to "at least once": the strict algorithm's inlining of single-use
//     rules relies on digram-table completeness, which eviction gives up,
//     so appends after eviction can legitimately leave a surviving rule
//     with one use (the eviction-churn regression test exposed exactly
//     this). A zero-use non-root rule is still a leak in every mode;
//   - use counts: each rule's tracked reference count matches the actual
//     number of nonterminals referencing it, and the root is never
//     referenced;
//   - expLen coherence: every non-zero expansion-length cache (populated by
//     the DAG layer) matches a bottom-up recount, cycles in the rule
//     reference graph are reported, and the root's expansion length matches
//     the number of appended terminals.
//
// It runs in O(total symbols) plus O(rules) for the expansion recount.
func CheckInvariants(g *Grammar) error {
	if g == nil || g.root == nil {
		return fmt.Errorf("sequitur: nil grammar or missing root")
	}
	// The arena's slot table is the rule registry; index it by public ID
	// for the checks below, verifying ID uniqueness and the live-rule
	// counter on the way.
	rules := make(map[uint64]*Rule, g.nRules)
	for _, r := range g.arena.ruleSlots {
		if r == nil {
			continue
		}
		if dup, ok := rules[r.id]; ok && dup != r {
			return fmt.Errorf("sequitur: rule id %d registered in two arena slots", r.id)
		}
		rules[r.id] = r
	}
	if len(rules) != g.nRules {
		return fmt.Errorf("sequitur: live-rule counter %d but %d rules in arena slots", g.nRules, len(rules))
	}
	if rules[g.root.id] != g.root {
		return fmt.Errorf("sequitur: root rule %d not registered in rule table", g.root.id)
	}

	// A sane RHS never exceeds the input length; the cap turns a broken
	// guard loop into an error instead of a hang.
	maxRHS := int(g.input) + 2*len(rules) + 16

	// refOf resolves a symbol's rule handle defensively: out-of-range and
	// freed slots report as nil instead of panicking, so slot corruption
	// surfaces as a sanitizer error.
	refOf := func(s *symbol) *Rule {
		if s.rule == nilRule || int(s.rule) >= len(g.arena.ruleSlots) {
			return nil
		}
		return g.arena.ruleSlots[s.rule]
	}

	seen := make(map[digram]uint64)         // digram -> rule holding it
	uses := make(map[uint64]int)            // rule id -> actual reference count
	linked := make([]bool, g.arena.symHigh) // symbols reachable from live rules

	for id, r := range rules {
		if r == nil {
			return fmt.Errorf("sequitur: rule table entry %d is nil", id)
		}
		if r.id != id {
			return fmt.Errorf("sequitur: rule table key %d holds rule with id %d", id, r.id)
		}
		if r.self == nilRule || int(r.self) >= len(g.arena.ruleSlots) || g.arena.ruleSlots[r.self] != r {
			return fmt.Errorf("sequitur: rule %d arena slot %d does not resolve back to the rule", id, r.self)
		}
		if r.guard == nilSym || uint32(r.guard) >= g.arena.symHigh {
			return fmt.Errorf("sequitur: rule %d guard handle %d out of arena range", id, r.guard)
		}
		guard := g.at(r.guard)
		if !guard.isGuard() || guard.rule != r.self {
			return fmt.Errorf("sequitur: rule %d guard node corrupt", id)
		}
		n := 0
		si := guard.next
		for {
			if si == nilSym {
				return fmt.Errorf("sequitur: rule %d: nil symbol after %d right-hand-side positions", id, n)
			}
			if uint32(si) >= g.arena.symHigh {
				return fmt.Errorf("sequitur: rule %d: symbol handle %d out of arena range", id, si)
			}
			s := g.at(si)
			if s.isGuard() {
				if si != r.guard {
					return fmt.Errorf("sequitur: rule %d right-hand side reaches rule %d's guard", id, s.value&^(ntBit|guardBit))
				}
				break
			}
			if s.next == nilSym || s.prev == nilSym {
				return fmt.Errorf("sequitur: rule %d: symbol at position %d has a nil link", id, n)
			}
			if g.at(s.next).prev != si || g.at(s.prev).next != si {
				return fmt.Errorf("sequitur: rule %d: broken doubly-linked list at position %d", id, n)
			}
			if s.rule != nilRule {
				ref := refOf(s)
				if ref == nil {
					return fmt.Errorf("sequitur: rule %d references dead rule slot %d", id, s.rule)
				}
				uses[ref.id]++
				if live, ok := rules[ref.id]; !ok {
					return fmt.Errorf("sequitur: rule %d references deleted rule %d", id, ref.id)
				} else if live != ref {
					return fmt.Errorf("sequitur: rule %d references a stale copy of rule %d", id, ref.id)
				}
			} else if s.value&(ntBit|guardBit) != 0 {
				return fmt.Errorf("sequitur: rule %d: terminal %#x uses the reserved nonterminal bit", id, s.value)
			}
			linked[si] = true
			next := g.at(s.next)
			if !next.isGuard() && g.pending == nil && !g.relaxed {
				d := digram{s.key(), next.key()}
				if prev, dup := seen[d]; dup {
					// Overlapping same-symbol digrams within a run are
					// permitted (aaa holds aa twice, overlapping).
					if !(d.a == d.b && prev == id) {
						return fmt.Errorf("sequitur: digram (%x,%x) duplicated in rules %d and %d", d.a, d.b, prev, id)
					}
				}
				seen[d] = id
			}
			n++
			if n > maxRHS {
				return fmt.Errorf("sequitur: rule %d right-hand side exceeds %d symbols: guard loop broken", id, maxRHS)
			}
			si = s.next
		}
		if id != g.root.id && n < 2 {
			return fmt.Errorf("sequitur: rule %d has %d symbols, want >= 2", id, n)
		}
	}

	// Digram table checks apply only to appendable grammars; ReadBinary
	// leaves the table nil.
	if g.digrams.slots != nil {
		if err := g.digrams.invariants(); err != nil {
			return err
		}
		var derr error
		g.digrams.all(func(d digram, si symID) bool {
			if uint32(si) >= g.arena.symHigh {
				derr = fmt.Errorf("sequitur: digram table entry (%x,%x) handle %d out of arena range", d.a, d.b, si)
				return false
			}
			s := g.at(si)
			switch {
			case s.isGuard():
				derr = fmt.Errorf("sequitur: digram table entry (%x,%x) points at a guard symbol", d.a, d.b)
			case !linked[si]:
				derr = fmt.Errorf("sequitur: digram table entry (%x,%x) points at an unlinked symbol", d.a, d.b)
			case s.next == nilSym || g.at(s.next).isGuard():
				derr = fmt.Errorf("sequitur: digram table entry (%x,%x) points at a rule's last symbol", d.a, d.b)
			case s.key() != d.a || g.at(s.next).key() != d.b:
				derr = fmt.Errorf("sequitur: digram table entry (%x,%x) points at digram (%x,%x)",
					d.a, d.b, s.key(), g.at(s.next).key())
			}
			return derr == nil
		})
		if derr != nil {
			return derr
		}
		if g.pending == nil && !g.relaxed {
			for d, rid := range seen {
				if g.digrams.lookup(d) == nilSym {
					return fmt.Errorf("sequitur: digram (%x,%x) in rule %d missing from the digram table", d.a, d.b, rid)
				}
			}
		}
	}

	for id, r := range rules {
		if id == g.root.id {
			continue
		}
		minUses := 2
		if g.relaxed {
			// Post-eviction appends can strand a surviving rule at one
			// use: match's single-use inlining presumes the digram table
			// is complete, and eviction gave that up. One use is legal
			// relaxed-mode structure; zero would be a leak.
			minUses = 1
		}
		if g.pending == nil && uses[id] < minUses {
			return fmt.Errorf("sequitur: rule %d used %d times, want >= %d (rule utility)", id, uses[id], minUses)
		}
		if uses[id] != int(r.uses) {
			return fmt.Errorf("sequitur: rule %d tracked uses %d != actual %d", id, r.uses, uses[id])
		}
	}
	if uses[g.root.id] != 0 {
		return fmt.Errorf("sequitur: root rule referenced by %d nonterminals", uses[g.root.id])
	}

	// Expansion-length cache coherence: recount bottom-up with memoization
	// and compare against every non-zero cache (zero means "not yet
	// computed by the DAG layer").
	memo := make(map[uint64]uint64, len(rules))
	state := make(map[uint64]int, len(rules)) // 1 = in progress, 2 = done
	var lenOf func(r *Rule) (uint64, error)
	lenOf = func(r *Rule) (uint64, error) {
		switch state[r.id] {
		case 1:
			return 0, fmt.Errorf("sequitur: rule %d participates in a reference cycle", r.id)
		case 2:
			return memo[r.id], nil
		}
		state[r.id] = 1
		var total uint64
		for si := g.at(r.guard).next; ; {
			s := g.at(si)
			if s.isGuard() {
				break
			}
			if s.rule != nilRule {
				n, err := lenOf(refOf(s))
				if err != nil {
					return 0, err
				}
				total += n
			} else {
				total++
			}
			si = s.next
		}
		state[r.id] = 2
		memo[r.id] = total
		return total, nil
	}
	for id, r := range rules {
		want, err := lenOf(r)
		if err != nil {
			return err
		}
		if r.expLen != 0 && r.expLen != want {
			return fmt.Errorf("sequitur: rule %d expansion-length cache %d != actual %d", id, r.expLen, want)
		}
	}
	if rootLen := memo[g.root.id]; rootLen != g.input {
		return fmt.Errorf("sequitur: root expands to %d terminals but %d were appended", rootLen, g.input)
	}
	return nil
}
