package sequitur

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// buildTestGrammar returns a grammar with several rules: the repeated
// motifs guarantee non-root productions to corrupt.
func buildTestGrammar(t *testing.T) *Grammar {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	in := make([]uint64, 0, 600)
	motifs := [][]uint64{{1, 2, 3}, {4, 5, 6, 7}, {2, 3, 4}}
	for len(in) < 600 {
		in = append(in, motifs[rng.Intn(len(motifs))]...)
	}
	g := New()
	g.AppendAll(in)
	if g.nRules < 2 {
		t.Fatal("test grammar has no non-root rules")
	}
	return g
}

// nonRoot returns an arbitrary non-root rule.
func nonRoot(t *testing.T, g *Grammar) *Rule {
	t.Helper()
	for _, r := range g.arena.ruleSlots {
		if r != nil && r.id != g.root.id {
			return r
		}
	}
	t.Fatal("no non-root rule")
	return nil
}

// firstDigram returns an arbitrary digram-table entry.
func firstDigram(t *testing.T, g *Grammar) (digram, symID) {
	t.Helper()
	var d digram
	var s symID
	g.digrams.all(func(dd digram, ss symID) bool {
		d, s = dd, ss
		return false
	})
	if s == nilSym {
		t.Fatal("empty digram table")
	}
	return d, s
}

func TestCheckInvariantsCleanGrammars(t *testing.T) {
	g := buildTestGrammar(t)
	if err := CheckInvariants(g); err != nil {
		t.Fatalf("fresh grammar: %v", err)
	}
	// DAG construction writes nothing into the grammar.
	NewDAG(g, 8)
	if err := CheckInvariants(g); err != nil {
		t.Fatalf("after DAG: %v", err)
	}
	// Frozen round-trip grammars pass too (digram-table checks are
	// skipped, structure checks are not).
	var buf bytes.Buffer
	if _, err := NewDAG(g, 8).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(g2); err != nil {
		t.Fatalf("frozen grammar: %v", err)
	}
	// The SEQUITUR(k) variant relaxes digram uniqueness while digrams are
	// pending but must still pass its (weaker) invariant set.
	gk := NewWithOptions(Options{MinRuleOccurrences: 3})
	gk.AppendAll([]uint64{1, 2, 1, 2, 1, 2, 1, 2, 3})
	if err := CheckInvariants(gk); err != nil {
		t.Fatalf("SEQUITUR(3) grammar: %v", err)
	}
}

// TestCheckInvariantsCorruption verifies that each class of structural
// damage yields a descriptive error naming the violated invariant.
func TestCheckInvariantsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, g *Grammar)
		want    string // substring of the expected error
	}{
		{
			name: "use count drift",
			corrupt: func(t *testing.T, g *Grammar) {
				nonRoot(t, g).uses++
			},
			want: "tracked uses",
		},
		{
			name: "dangling rule reference",
			corrupt: func(t *testing.T, g *Grammar) {
				r := nonRoot(t, g)
				g.arena.ruleSlots[r.self] = nil
				g.nRules--
			},
			want: "dead rule slot",
		},
		{
			name: "stale digram table key",
			corrupt: func(t *testing.T, g *Grammar) {
				d, s := firstDigram(t, g)
				g.digrams.del(d)
				g.digrams.set(digram{d.a ^ 0x5a5a, d.b}, s)
			},
			want: "digram table entry",
		},
		{
			name: "digram table dropout",
			corrupt: func(t *testing.T, g *Grammar) {
				d, _ := firstDigram(t, g)
				g.digrams.del(d)
			},
			want: "missing from the digram table",
		},
		{
			name: "unlinked digram table entry",
			corrupt: func(t *testing.T, g *Grammar) {
				// Fabricate a correctly-keyed two-symbol chain in the arena
				// that no rule links to, and point the table entry at it.
				d, _ := firstDigram(t, g)
				ai := g.arena.allocSymbol()
				bi := g.arena.allocSymbol()
				a, b := g.at(ai), g.at(bi)
				a.value, b.value = d.a, d.b
				a.next, b.prev = bi, ai
				g.digrams.set(d, ai)
			},
			want: "unlinked symbol",
		},
		{
			name: "broken doubly-linked list",
			corrupt: func(t *testing.T, g *Grammar) {
				g.at(g.at(g.root.first()).next).prev = g.root.guard
			},
			want: "broken doubly-linked list",
		},
		{
			name: "guard corruption",
			corrupt: func(t *testing.T, g *Grammar) {
				g.at(nonRoot(t, g).guard).rule = nilRule
			},
			want: "guard node corrupt",
		},
		{
			name: "input length drift",
			corrupt: func(t *testing.T, g *Grammar) {
				g.input++
			},
			want: "root expands to",
		},
		{
			name: "reserved terminal bit",
			corrupt: func(t *testing.T, g *Grammar) {
				for _, r := range g.Rules() {
					for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
						if s := g.at(si); s.rule == nilRule {
							s.value |= ntBit
							return
						}
					}
				}
				t.Fatal("grammar has no terminal")
			},
			want: "reserved nonterminal bit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := buildTestGrammar(t)
			tc.corrupt(t, g)
			err := CheckInvariants(g)
			if err == nil {
				t.Fatalf("corruption %q not detected", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSanitizeHotHook exercises the repro_sanitize Append hook: a grammar
// corrupted between appends must panic on the next Append. Without the tag
// the hook compiles away, so the test self-skips.
func TestSanitizeHotHook(t *testing.T) {
	if !sanitizeHot {
		t.Skip("built without the repro_sanitize tag")
	}
	g := New()
	g.AppendAll([]uint64{1, 2, 3})
	g.input++ // simulate silent state corruption
	defer func() {
		if recover() == nil {
			t.Fatal("Append did not panic on a corrupted grammar")
		}
	}()
	g.Append(4)
}
