package sequitur

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/abstract"
	"repro/internal/workload"
)

// naiveGrammar is a deliberately naive SEQUITUR written from
// Nevill-Manning & Witten's description, kept as a differential oracle
// for the arena engine. Right-hand sides are slices in a map, every
// digram lookup scans the whole grammar, a symbol is found again by
// scanning for its id, and use counts are recounted by scanning: no
// arena, no linked lists and no digram table. It follows the order of
// operations of the published algorithm: check the digram a new symbol
// ends; on a non-overlapping duplicate, reuse the rule whose whole
// right-hand side it is or make a new rule and substitute the older
// occurrence first; after a substitution check the digram on the
// nonterminal's left, and only if that changed nothing the one on its
// right; then inline the new rule's first symbol if that rule is left
// with one use.
//
// Scanning cannot decide one case. In a run "x x x" the digram (x, x)
// occurs twice, overlapping, and a new occurrence elsewhere matches one
// of the two pairs. The published algorithm matches the pair its digram
// index holds. That is the older pair, except where one of three steps
// indexes a pair whatever was indexed before: inlining a rule indexes
// the pair it forms at the rule's right end, making a rule indexes the
// rule's own pair, and removing a symbol beside a run of three indexes
// the pair of the run that survives. So the oracle stamps each pair
// with the time it formed (formed, keyed by the pair's first symbol),
// stamps a pair those steps index as older than any before it, and a
// new occurrence matches the oldest other one.
type naiveGrammar struct {
	rules   map[int][]nsym // rule -> right-hand side; rule 0 is the root
	formed  map[int]int    // symbol id -> when the pair it starts formed
	clock   int            // next stamp of a new pair; counts up
	oldest  int            // next stamp of an indexed pair; counts down
	nextID  int            // next rule number
	nextSym int            // next symbol id
}

// nsym is one right-hand-side symbol. The id is unique per occurrence,
// so a symbol can be found again after edits shift its index.
type nsym struct {
	id   int
	rule int // referenced rule, or -1 for a terminal
	val  uint64
}

// pairFormed stamps the pair that symbol id now starts as new.
func (n *naiveGrammar) pairFormed(id int) {
	n.formed[id] = n.clock
	n.clock++
}

// pairIndexed stamps the pair that symbol id now starts as older than
// any other.
func (n *naiveGrammar) pairIndexed(id int) {
	n.formed[id] = n.oldest
	n.oldest--
}

func (n *naiveGrammar) sym(rule int, val uint64) nsym {
	n.nextSym++
	return nsym{id: n.nextSym, rule: rule, val: val}
}

func same(a, b nsym) bool { return a.rule == b.rule && (a.rule >= 0 || a.val == b.val) }

// locate returns the rule and index holding symbol id.
func (n *naiveGrammar) locate(id int) (int, int) {
	for r, body := range n.rules {
		for i, s := range body {
			if s.id == id {
				return r, i
			}
		}
	}
	panic(fmt.Sprintf("naive: symbol %d is in no rule", id))
}

func (n *naiveGrammar) uses(rule int) int {
	k := 0
	for _, body := range n.rules {
		for _, s := range body {
			if s.rule == rule {
				k++
			}
		}
	}
	return k
}

func (n *naiveGrammar) append(v uint64) {
	root := append(n.rules[0], n.sym(-1, v))
	n.rules[0] = root
	if len(root) >= 2 {
		n.pairFormed(root[len(root)-2].id)
		n.check(root[len(root)-2].id)
	}
}

// check looks for another occurrence of the digram that symbol id
// starts, taking the oldest if there are two. It reports whether one
// exists, and resolves it unless it overlaps this one.
func (n *naiveGrammar) check(id int) bool {
	r, i := n.locate(id)
	body := n.rules[r]
	if i+1 >= len(body) {
		return false
	}
	a, b := body[i], body[i+1]
	other, overlaps := 0, false
	for q := 0; q < n.nextID; q++ {
		qb := n.rules[q]
		for j := 0; j+1 < len(qb); j++ {
			if !same(qb[j], a) || !same(qb[j+1], b) || (q == r && j == i) {
				continue
			}
			if other == 0 || n.formed[qb[j].id] < n.formed[other] {
				other, overlaps = qb[j].id, q == r && (j == i-1 || j == i+1)
			}
		}
	}
	if other == 0 {
		return false
	}
	if !overlaps {
		n.match(id, other)
	}
	return true
}

// match resolves the duplicate digram starting at symbol id, whose
// older occurrence starts at symbol other.
func (n *naiveGrammar) match(id, other int) {
	var rule int
	if q, j := n.locate(other); q != 0 && j == 0 && len(n.rules[q]) == 2 {
		rule = q
		n.substitute(id, rule)
	} else {
		r, i := n.locate(id)
		a, b := n.rules[r][i], n.rules[r][i+1]
		rule = n.nextID
		n.nextID++
		n.rules[rule] = []nsym{n.sym(a.rule, a.val), n.sym(b.rule, b.val)}
		n.substitute(other, rule)
		n.substitute(id, rule)
		n.pairIndexed(n.rules[rule][0].id)
	}
	if f := n.rules[rule][0]; f.rule >= 0 && n.uses(f.rule) == 1 {
		n.inline(f.id)
	}
}

// substitute replaces the digram starting at symbol id with a
// nonterminal for rule, then checks the digrams around it.
func (n *naiveGrammar) substitute(id, rule int) {
	r, i := n.locate(id)
	n.remove(r, i)
	n.remove(r, i)
	nt := n.sym(rule, 0)
	body := slices.Insert(n.rules[r], i, nt)
	n.rules[r] = body
	n.pairFormed(nt.id)
	if i == 0 {
		n.check(nt.id)
		return
	}
	n.pairFormed(body[i-1].id)
	if i >= 2 && i+1 < len(body) && same(body[i-2], body[i-1]) && same(body[i-1], body[i+1]) {
		n.pairIndexed(body[i-2].id)
	}
	if !n.check(body[i-1].id) {
		n.check(nt.id)
	}
}

// remove deletes the symbol at index i of rule r. Where that leaves
// part of a run of three, the published algorithm re-indexes the pair
// of the run that survives (its "abbbabcbb" repair), and so does this.
func (n *naiveGrammar) remove(r, i int) {
	body := n.rules[r]
	at := func(k int) (nsym, bool) {
		if k < 0 || k >= len(body) {
			return nsym{}, false
		}
		return body[k], true
	}
	s := body[i]
	if x, ok := at(i + 1); ok {
		if y, ok := at(i + 2); ok && same(s, x) && same(x, y) {
			n.pairIndexed(x.id)
		}
	}
	if x, ok := at(i - 1); ok {
		if w, ok := at(i - 2); ok && same(w, x) && same(x, s) {
			n.pairIndexed(w.id)
		}
		n.pairFormed(x.id)
	}
	n.rules[r] = slices.Delete(body, i, i+1)
}

// inline replaces nonterminal id with its rule's right-hand side and
// deletes the rule.
func (n *naiveGrammar) inline(id int) {
	r, i := n.locate(id)
	body := n.rules[r]
	rule := body[i].rule
	inner := n.rules[rule]
	n.rules[r] = slices.Concat(body[:i], inner, body[i+1:])
	delete(n.rules, rule)
	if i > 0 {
		n.pairFormed(body[i-1].id)
	}
	n.pairIndexed(inner[len(inner)-1].id)
}

// canonical renders a grammar in the oracle's form (right-hand sides
// keyed by rule, the root at 0) with its rules renumbered in order of
// first appearance in a left-to-right walk from the root, so grammars
// that differ only in rule numbering render the same. Rules the walk
// never reaches, which a well-formed grammar has none of, follow in key
// order.
func canonical(rules map[int][]nsym) []string {
	num := map[int]int{0: 0}
	order := []int{0}
	var walk func(int)
	walk = func(q int) {
		for _, s := range rules[q] {
			if _, seen := num[s.rule]; s.rule >= 0 && !seen {
				num[s.rule] = len(order)
				order = append(order, s.rule)
				walk(s.rule)
			}
		}
	}
	walk(0)
	keys := make([]int, 0, len(rules))
	for q := range rules {
		keys = append(keys, q)
	}
	slices.Sort(keys)
	for _, q := range keys {
		if _, seen := num[q]; !seen {
			num[q] = len(order)
			order = append(order, q)
		}
	}
	out := make([]string, len(order))
	for p, q := range order {
		var b strings.Builder
		fmt.Fprintf(&b, "%d ->", p)
		for _, s := range rules[q] {
			if s.rule >= 0 {
				fmt.Fprintf(&b, " R%d", num[s.rule])
			} else {
				fmt.Fprintf(&b, " %d", s.val)
			}
		}
		out[p] = b.String()
	}
	return out
}

// arenaRules converts g to the oracle's form, keyed by rule ID.
func arenaRules(g *Grammar) map[int][]nsym {
	out := make(map[int][]nsym, g.NumRules())
	for id, r := range g.Rules() {
		h := r.RHS()
		body := make([]nsym, h.Len())
		for i, ref := range h.Refs {
			body[i] = nsym{rule: -1, val: h.Terminals[i]}
			if ref != nil {
				body[i] = nsym{rule: int(ref.ID())}
			}
		}
		out[int(id)] = body
	}
	return out
}

// naiveOracle builds the naive grammar of in.
func naiveOracle(in []uint64) *naiveGrammar {
	n := &naiveGrammar{rules: map[int][]nsym{0: nil}, formed: map[int]int{}, clock: 1, nextID: 1}
	for _, v := range in {
		n.append(v)
	}
	return n
}

// sameAsOracle fails t unless g and the naive grammar of in are the
// same grammar up to rule numbering.
func sameAsOracle(t *testing.T, name string, g *Grammar, in []uint64) {
	t.Helper()
	got, want := canonical(arenaRules(g)), canonical(naiveOracle(in).rules)
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: %d rules, naive %d; first difference at canonical rule %d:\n  arena %s\n  naive %s",
				name, len(got), len(want), i, got[i], want[i])
		}
	}
	t.Fatalf("%s: %d rules, naive %d", name, len(got), len(want))
}

// TestNaiveOracleMatchesSmallInputs pins the oracle itself on inputs
// whose grammars are known, so the oracle cannot drift into agreeing
// with a wrong engine.
func TestNaiveOracleMatchesSmallInputs(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []string
	}{
		{"abcdbcabcd", []string{"0 -> R1 R2 R1", "1 -> 1 R2 4", "2 -> 2 3"}},
		{"aaaa", []string{"0 -> R1 R1", "1 -> 1 1"}},
		{"aaa", []string{"0 -> 1 1 1"}},
	} {
		if got := canonical(naiveOracle(sym(c.in)).rules); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: naive grammar %q, want %q", c.in, got, c.want)
		}
	}
}

// TestArenaMatchesNaiveOracle holds the arena engine to the naive
// SEQUITUR on every workload family at a few thousand references,
// grammar for grammar up to rule numbering, and does the same for a
// grammar persisted with WriteState halfway, restored with ReadState
// and grown by the rest: persist, rehydrate and continue must build
// the grammar the uninterrupted algorithm builds. FuzzExpandIdentity
// makes the same comparison on its corpus.
func TestArenaMatchesNaiveOracle(t *testing.T) {
	for _, bench := range workload.Names() {
		buf, err := workload.Generate(bench, 3000, 1)
		if err != nil {
			t.Fatal(err)
		}
		names := abstract.New(abstract.BirthID).Abstract(buf).Names
		g := New()
		g.AppendAll(names)
		sameAsOracle(t, bench, g, names)

		half := New()
		half.AppendAll(names[:len(names)/2])
		var st bytes.Buffer
		if _, err := half.WriteState(&st); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadState(&st)
		if err != nil {
			t.Fatal(err)
		}
		restored.AppendAll(names[len(names)/2:])
		sameAsOracle(t, bench+"/ReadState", restored, names)
	}
	// Short inputs over small alphabets are dense in runs, where the
	// algorithm's choice between overlapping pairs is decided.
	rng := rand.New(rand.NewSource(1))
	for i := range 500 {
		in := make([]uint64, 1+rng.Intn(300))
		k := 1 + rng.Intn(5)
		for j := range in {
			in[j] = uint64(rng.Intn(k)) + 1
		}
		g := New()
		g.AppendAll(in)
		sameAsOracle(t, fmt.Sprintf("random input %d %v", i, in), g, in)
	}
}
