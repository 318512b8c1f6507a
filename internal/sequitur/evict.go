package sequitur

// This file implements cold-rule eviction: the bounded-memory mode the
// online analysis engine (internal/online) uses to keep an incrementally
// grown grammar's rule table at a configurable size while the input
// stream is unbounded.
//
// Evicting a rule inlines a copy of its right-hand side at every use
// site and deletes the rule. The expansion of every surviving rule — in
// particular the root, i.e. the represented input sequence — is exactly
// preserved, so Expand and every measurement pass over the
// regenerated sequence remain exact. What is given up is compression
// state: the inlined copies duplicate digrams, so the grammar leaves the
// strict SEQUITUR invariant regime ("relaxed" mode). The digram table
// stays *valid* (every entry points at a live, correctly-keyed symbol;
// Append keeps working and keeps compressing new input) but is no longer
// *complete*: duplicated digrams are simply never re-merged. The
// sanitizer (CheckInvariants) skips the digram-uniqueness and
// table-completeness checks for relaxed grammars and enforces everything
// else.

// EvictColdRules evicts rules until at most maxRules remain (the root
// always survives), returning the number of rules evicted. Candidates
// are ordered coldest first: fewest uses, then shortest right-hand side,
// then lowest ID (oldest). The order is deterministic, so two grammars
// built and evicted identically stay identical.
//
// It panics with ErrFrozen on grammars loaded with ReadBinary.
func (g *Grammar) EvictColdRules(maxRules int) int {
	if g.frozen {
		panic(ErrFrozen)
	}
	if maxRules < 1 {
		maxRules = 1
	}
	evicted := 0
	for g.nRules > maxRules {
		r := g.coldestRule()
		if r == nil {
			break
		}
		g.evictRule(r)
		evicted++
	}
	if evicted > 0 {
		g.relaxed = true
		// Eviction mass-deletes digram-table entries; shrink the slot
		// array back to a healthy load here, the one place bulk deletion
		// happens (the per-append path never resizes downward).
		g.digrams.compact()
	}
	return evicted
}

// Relaxed reports whether cold-rule eviction has relaxed the grammar's
// digram-uniqueness invariant.
func (g *Grammar) Relaxed() bool { return g.relaxed }

// coldestRule picks the eviction victim: the non-root rule with the
// fewest uses, breaking ties by shorter right-hand side, then lower ID.
func (g *Grammar) coldestRule() *Rule {
	var best *Rule
	bestLen := 0
	for _, r := range g.arena.ruleSlots {
		if r == nil || r == g.root {
			continue
		}
		n := 0
		for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
			n++
		}
		if best == nil ||
			r.uses < best.uses ||
			(r.uses == best.uses && (n < bestLen || (n == bestLen && r.id < best.id))) {
			best, bestLen = r, n
		}
	}
	return best
}

// evictRule removes r from the grammar by inlining a copy of its RHS at
// every use site.
func (g *Grammar) evictRule(r *Rule) {
	// Drop the digram-table entries that point into r's RHS first, so
	// the first inlined copy re-registers those digrams at a surviving
	// location.
	for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
		g.deleteDigram(si)
	}

	// Collect use sites in deterministic order: rules by ascending ID,
	// symbols in RHS order. (Use sites cannot be inside r itself — the
	// grammar is acyclic.)
	var uses []symID
	for _, rr := range g.liveRulesSorted() {
		for si := rr.first(); ; {
			s := g.at(si)
			if s.isGuard() {
				break
			}
			if s.rule == r.self {
				uses = append(uses, si)
			}
			si = s.next
		}
	}
	for _, si := range uses {
		g.inlineCopy(si, r)
	}

	// Dismantle r's RHS, releasing its references to other rules. The
	// inlined copies hold their own references, so every rule r referred
	// to nets uses + (r.uses at entry) - 1 >= +1. The dismantled symbols,
	// the rule, and its guard are dead and recycled into the arena (the
	// digram sweep above dropped every table entry pointing into the RHS).
	for si := r.first(); ; {
		s := g.at(si)
		if s.isGuard() {
			break
		}
		next := s.next
		if s.rule != nilRule {
			g.ruleAt(s.rule).uses--
		}
		s.next, s.prev, s.rule = nilSym, nilSym, nilRule
		g.arena.freeSymbol(si)
		si = next
	}
	g.deleteRule(r)
	g.arena.freeRule(r)
}

// inlineCopy replaces the nonterminal si (a use of rule r) with a fresh
// copy of r's right-hand side, keeping the digram table valid: entries
// for the two digrams destroyed at the splice point are dropped, and the
// chain's digrams are registered only where their key is absent —
// duplicated digrams relax uniqueness instead of corrupting the table.
func (g *Grammar) inlineCopy(si symID, r *Rule) {
	left, right := g.at(si).prev, g.at(si).next
	g.deleteDigram(left) // (left, s); no-op when left is the guard
	g.deleteDigram(si)   // (s, right); no-op when right is the guard

	// copySymbol allocates, which can move the arena: everything here
	// works in handles, re-resolving after each copy.
	var first, last symID
	for ti := r.first(); !g.at(ti).isGuard(); {
		next := g.at(ti).next
		ci := g.copySymbol(ti)
		c := g.at(ci)
		if c.rule != nilRule {
			g.ruleAt(c.rule).uses++
		}
		if first == nilSym {
			first = ci
		} else {
			g.at(last).next = ci
			c.prev = last
		}
		last = ci
		ti = next
	}
	r.uses--
	s := g.at(si)
	s.next, s.prev, s.rule = nilSym, nilSym, nilRule
	g.arena.freeSymbol(si)

	g.at(left).next, g.at(first).prev = first, left
	g.at(last).next, g.at(right).prev = right, last

	for ti := left; ti != last; ti = g.at(ti).next {
		g.registerIfAbsent(ti)
	}
	g.registerIfAbsent(last)
}

// registerIfAbsent records the digram starting at si in the table unless
// the key is already present (pointing elsewhere): the relaxed-mode
// counterpart of the strict index maintained by check.
func (g *Grammar) registerIfAbsent(si symID) {
	s := g.at(si)
	if s.isGuard() || s.next == nilSym {
		return
	}
	n := g.at(s.next)
	if n.isGuard() {
		return
	}
	g.digrams.lookupOrInsert(digram{s.value, n.value}, si)
}
