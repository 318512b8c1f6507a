package sequitur

import (
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// DAG is the analysis view of a grammar: the directed acyclic graph Larus
// used for Whole Program Paths and the paper reuses for Whole Program
// Streams (Figure 3). Nodes are rules; each right-hand-side position is an
// edge to either another rule or a terminal. The DAG precomputes, per rule:
//
//   - Occ: how many times the rule's expansion occurs in the whole input
//     (the root occurs once), and
//   - ExpLen: the length of the rule's expansion in terminals,
//
// which the hot-data-stream analysis needs to weight boundary-crossing
// subsequences.
//
// Rules are named by their postorder position p, children first, and
// every per-rule quantity is a flat slice indexed by p. Building a DAG
// writes nothing into the grammar.
// Right-hand sides are copied out of the grammar's linked symbol arena
// into two shared backings (rule references as positions, and terminal
// values), and the prefix/suffix affixes share two more, so building a
// DAG allocates a handful of slices and no maps whatever the grammar's
// size. The positions are the WPS1 codec's rule numbering.
//
// A DAG is a frozen value: NewDAG copies everything it later reads,
// each rule's ID and the root's position included, and computes every
// memoization (occurrence counts, expansion lengths, prefix/suffix
// affixes) eagerly. It keeps no pointer into the grammar: once NewDAG
// returns, the grammar may go on growing while any number of goroutines
// read the DAG.
type DAG struct {
	root int32    // the root's position
	ids  []uint64 // position -> rule ID
	occ  []uint64
	lens []uint64
	// Rule p's right-hand side is refs/terms[rhs[p].lo:rhs[p].hi]: at
	// each symbol, refs holds the referenced rule's position, or -1 for
	// a terminal whose value terms holds.
	rhs   []span
	refs  []int32
	terms []uint64
	// Rule p's first and last min(ExpLen(p), maxAffix) terminals are
	// pre/suf[aff[p]:aff[p+1]].
	aff      []int
	pre, suf []uint64
	maxAffix int
}

// span bounds one rule's symbols in the DAG's right-hand-side backings.
type span struct{ lo, hi int32 }

// NewDAG freezes the grammar into its DAG view. maxAffix bounds the length
// of memoized prefix/suffix expansions (use the maximum hot-stream length).
func NewDAG(g *Grammar, maxAffix int) *DAG {
	if maxAffix < 1 {
		maxAffix = 1
	}
	d := &DAG{maxAffix: maxAffix}
	d.postorder(g, d.copyRHS(g))
	d.computeOcc()
	d.computeLens()
	d.computeAffixes()
	return d
}

// copyRHS copies every live rule's right-hand side into the shared
// backings in one pass over the arena's rule slots, with references
// named by rule slot for now. It returns each slot's span.
func (d *DAG) copyRHS(g *Grammar) []span {
	slots := g.arena.ruleSlots
	bySlot := make([]span, len(slots))
	// Every allocated symbol that is neither free nor a guard sits in a
	// right-hand side, so this sizes the backings exactly.
	n := max(int(g.arena.symHigh)-1-int(g.arena.nFree)-g.nRules, 0)
	d.refs = make([]int32, 0, n)
	d.terms = make([]uint64, 0, n)
	for h, r := range slots {
		if r == nil {
			continue
		}
		lo := int32(len(d.refs))
		for si := r.first(); ; {
			s := g.at(si)
			if s.isGuard() {
				break
			}
			if s.rule != nilRule {
				d.refs = append(d.refs, int32(s.rule))
				d.terms = append(d.terms, 0)
			} else {
				d.refs = append(d.refs, -1)
				d.terms = append(d.terms, s.value)
			}
			si = s.next
		}
		bySlot[h] = span{lo, int32(len(d.refs))}
	}
	return bySlot
}

// postorder orders rules children-first via an iterative DFS from the
// root, assigns each its position, lays the spans and rule IDs out by
// position, and renames every reference from its rule slot to its
// position. Unreachable rules (none exist in a well-formed grammar) are
// appended at the end for robustness.
func (d *DAG) postorder(g *Grammar, bySlot []span) {
	slots := g.arena.ruleSlots
	const unseen, onStack = -1, -2
	pos := make([]int32, len(slots)) // rule slot -> position
	for i := range pos {
		pos[i] = unseen
	}
	d.ids = make([]uint64, 0, g.nRules)
	d.rhs = make([]span, 0, g.nRules)
	emit := func(h ruleID) {
		pos[h] = int32(len(d.ids))
		d.ids = append(d.ids, slots[h].id)
		d.rhs = append(d.rhs, bySlot[h])
	}
	// A frame is a rule slot and the next symbol of its span to visit.
	type frame struct {
		h    ruleID
		next int32
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{g.root.self, bySlot[g.root.self].lo}
	pos[g.root.self] = onStack
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		hi := bySlot[top.h].hi
		var child ruleID
		for top.next < hi && child == nilRule {
			if ref := d.refs[top.next]; ref >= 0 && pos[ref] == unseen {
				child = ruleID(ref)
			}
			top.next++
		}
		if child != nilRule {
			pos[child] = onStack
			stack = append(stack, frame{child, bySlot[child].lo})
			continue
		}
		emit(top.h)
		stack = stack[:len(stack)-1]
	}
	for h, r := range slots {
		if r != nil && pos[h] == unseen {
			emit(ruleID(h))
		}
	}
	for i, ref := range d.refs {
		if ref >= 0 {
			d.refs[i] = pos[ref]
		}
	}
	d.root = pos[g.root.self]
}

// computeOcc propagates occurrence counts root-down (reverse postorder).
func (d *DAG) computeOcc() {
	d.occ = make([]uint64, d.Len())
	d.occ[d.root] = 1
	for p := d.Len() - 1; p >= 0; p-- {
		n := d.occ[p]
		if n == 0 {
			continue
		}
		for _, ref := range d.refsOf(p) {
			if ref >= 0 {
				d.occ[ref] += n
			}
		}
	}
}

// computeLens fills each rule's expansion length, children first.
func (d *DAG) computeLens() {
	d.lens = make([]uint64, d.Len())
	for p := range d.lens {
		var n uint64
		for _, ref := range d.refsOf(p) {
			if ref < 0 {
				n++
			} else {
				n += d.lens[ref]
			}
		}
		d.lens[p] = n
	}
}

// computeAffixes memoizes each rule's expansion prefix and suffix up to
// maxAffix terminals, children first, into two backings sized to the
// affixes' total length.
func (d *DAG) computeAffixes() {
	d.aff = make([]int, d.Len()+1)
	for p, n := range d.lens {
		d.aff[p+1] = d.aff[p] + int(min(n, uint64(d.maxAffix)))
	}
	total := d.aff[d.Len()]
	d.pre = make([]uint64, total)
	d.suf = make([]uint64, total)
	for p := range d.rhs {
		lo, hi := d.aff[p], d.aff[p+1]
		sp := d.rhs[p]
		// The prefix fills forward from lo, the suffix backward from hi.
		w := lo
		for i := sp.lo; i < sp.hi && w < hi; i++ {
			if ref := d.refs[i]; ref >= 0 {
				w += copy(d.pre[w:hi], d.pre[d.aff[ref]:d.aff[ref+1]])
			} else {
				d.pre[w] = d.terms[i]
				w++
			}
		}
		w = hi
		for i := sp.hi - 1; i >= sp.lo && w > lo; i-- {
			if ref := d.refs[i]; ref >= 0 {
				rs := d.suf[d.aff[ref]:d.aff[ref+1]]
				n := min(len(rs), w-lo)
				w -= copy(d.suf[w-n:w], rs[len(rs)-n:])
			} else {
				w--
				d.suf[w] = d.terms[i]
			}
		}
	}
}

// refsOf returns the references of rule p's right-hand side (-1 at
// terminals).
func (d *DAG) refsOf(p int) []int32 {
	sp := d.rhs[p]
	return d.refs[sp.lo:sp.hi]
}

// Len returns the number of rules, the root included.
func (d *DAG) Len() int { return len(d.ids) }

// Root returns the root's position.
func (d *DAG) Root() int { return int(d.root) }

// ID returns the grammar's ID for the rule at position p.
func (d *DAG) ID(p int) uint64 { return d.ids[p] }

// Occ returns the number of occurrences of rule p's expansion in the full
// input string.
func (d *DAG) Occ(p int) uint64 { return d.occ[p] }

// ExpLen returns the expansion length of rule p in terminals.
func (d *DAG) ExpLen(p int) uint64 { return d.lens[p] }

// RHSLen returns the number of right-hand-side positions of rule p.
func (d *DAG) RHSLen(p int) int {
	sp := d.rhs[p]
	return int(sp.hi - sp.lo)
}

// Elem returns position i of rule p's right-hand side: the referenced
// rule's position and true, or a terminal value and false.
func (d *DAG) Elem(p, i int) (uint64, bool) {
	s := int(d.rhs[p].lo) + i
	if ref := d.refs[s]; ref >= 0 {
		return uint64(ref), true
	}
	return d.terms[s], false
}

// Prefix returns the first n terminals of rule p's expansion (fewer if the
// expansion is shorter). n must not exceed the maxAffix given to NewDAG.
func (d *DAG) Prefix(p, n int) []uint64 {
	a := d.pre[d.aff[p]:d.aff[p+1]]
	return a[:min(n, len(a))]
}

// Suffix returns the last n terminals of rule p's expansion.
func (d *DAG) Suffix(p, n int) []uint64 {
	a := d.suf[d.aff[p]:d.aff[p+1]]
	return a[len(a)-min(n, len(a)):]
}

// Expand returns the represented sequence: the expansion of the root.
// Each rule is expanded from its right-hand side only at its first
// occurrence; every later occurrence copies the terminals that first
// one wrote, so the work beyond one pass over the grammar is a memmove
// per repeated occurrence. It uses an explicit stack, so arbitrarily deep
// grammars cannot overflow the goroutine stack.
func (d *DAG) Expand() []uint64 {
	out := make([]uint64, d.lens[d.root])
	// at[p] is one past where rule p's first expansion starts in out,
	// zero until it has one.
	at := make([]int, d.Len())
	stack := make([]span, 1, 64)
	stack[0] = d.rhs[d.root]
	w := 0
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.lo == top.hi {
			stack = stack[:len(stack)-1]
			continue
		}
		i := top.lo
		top.lo++
		ref := d.refs[i]
		if ref < 0 {
			out[w] = d.terms[i]
			w++
			continue
		}
		if a := at[ref]; a > 0 {
			w += copy(out[w:], out[a-1:a-1+int(d.lens[ref])])
			continue
		}
		at[ref] = w + 1
		stack = append(stack, d.rhs[ref])
	}
	return out
}

// Stats summarizes representation size, the quantities Figure 5 plots.
type Stats struct {
	// Rules is the number of productions including the root.
	Rules int
	// Symbols is the total number of right-hand-side positions, i.e. DAG
	// edges.
	Symbols int
	// Terminals is the number of distinct terminal values.
	Terminals int
	// ASCIIBytes is the size of the grammar rendered in the textual form
	// whose size the paper reports ("the size of the ASCII grammar
	// produced by SEQUITUR"). The binary form is about half this.
	ASCIIBytes uint64
	// InputLen is the length of the represented sequence.
	InputLen uint64
}

// CompressionRatio returns input length over grammar symbols: the measure
// of data-reference regularity discussed in §5.2.
func (s Stats) CompressionRatio() float64 {
	if s.Symbols == 0 {
		return 0
	}
	return float64(s.InputLen) / float64(s.Symbols)
}

// ComputeStats sizes the grammar. ASCIIBytes is counted, not rendered:
// it equals the number of bytes WriteASCII writes.
func (d *DAG) ComputeStats() Stats {
	st := Stats{Rules: d.Len(), InputLen: d.lens[d.root], Symbols: len(d.refs)}
	terms := newTermSet(len(d.refs))
	for p, id := range d.ids {
		st.ASCIIBytes += decimalLen(id) + 4 // "id ->" plus newline
		sp := d.rhs[p]
		for i := sp.lo; i < sp.hi; i++ {
			if ref := d.refs[i]; ref >= 0 {
				st.ASCIIBytes += decimalLen(d.ids[ref]) + 2 // " R" and the id
			} else {
				st.ASCIIBytes += decimalLen(d.terms[i]) + 1 // " " and the value
				terms.add(d.terms[i])
			}
		}
	}
	st.Terminals = terms.n
	return st
}

// decimalLen returns the number of decimal digits in v.
func decimalLen(v uint64) uint64 {
	n := uint64(1)
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// termSet counts distinct terminal values: an open-addressed set of
// value+1 (terminals stay below 1<<62, so 0 marks an empty slot), sized
// once for at most max values.
type termSet struct {
	slots []uint64
	shift uint
	n     int
}

func newTermSet(max int) termSet {
	b := bits.Len(uint(2*max) | 1)
	return termSet{slots: make([]uint64, 1<<b), shift: uint(64 - b)}
}

func (t *termSet) add(v uint64) {
	k := v + 1
	mask := uint64(len(t.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case k:
			return
		case 0:
			t.slots[i] = k
			t.n++
			return
		}
	}
}

// WriteASCII renders the grammar in a stable, human-readable form:
//
//	0 -> R1 R1 c
//	1 -> a b
//
// Rules print in ascending ID order. It returns the number of bytes
// written.
func (d *DAG) WriteASCII(w io.Writer) (int64, error) {
	byID := make([]int32, d.Len())
	for p := range byID {
		byID[p] = int32(p)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(d.ids[a], d.ids[b]) })
	var total int64
	for _, p := range byID {
		n, err := fmt.Fprintf(w, "%d ->", d.ids[p])
		total += int64(n)
		if err != nil {
			return total, err
		}
		sp := d.rhs[p]
		for i := sp.lo; i < sp.hi; i++ {
			if ref := d.refs[i]; ref >= 0 {
				n, err = fmt.Fprintf(w, " R%d", d.ids[ref])
			} else {
				n, err = fmt.Fprintf(w, " %d", d.terms[i])
			}
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		n, err = fmt.Fprintln(w)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
