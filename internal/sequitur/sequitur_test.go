package sequitur

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// sym converts a string of letters into the terminal encoding used in
// tests: 'a' -> 1, 'b' -> 2, ...
func sym(s string) []uint64 {
	out := make([]uint64, len(s))
	for i := range s {
		out[i] = uint64(s[i]-'a') + 1
	}
	return out
}

func build(t *testing.T, s string) *Grammar {
	t.Helper()
	g := New()
	g.AppendAll(sym(s))
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("invariants after %q: %v", s, err)
	}
	return g
}

func TestPaperFigure3Grammar(t *testing.T) {
	// Figure 3: SEQUITUR on "abcbcabcabc" produces a grammar equivalent
	// to S -> BABB? The paper's rendering is S->BAB B / A->bc / B->aA;
	// exact rule naming differs by implementation, so we assert the
	// structural properties: the grammar expands back to the input, has
	// a rule expanding to "bc" and one to "abc".
	input := "abcbcabcabc"
	g := build(t, input)
	if got := g.Expand(); !reflect.DeepEqual(got, sym(input)) {
		t.Fatalf("expand = %v, want %v", got, sym(input))
	}
	d := NewDAG(g, 100)
	expansions := map[string]bool{}
	for p := range d.Len() {
		if p == d.Root() {
			continue
		}
		full := expandRule(d, p)
		expansions[string(lettersOf(full))] = true
	}
	if !expansions["bc"] {
		t.Errorf("no rule expands to bc; have %v", expansions)
	}
	if !expansions["abc"] {
		t.Errorf("no rule expands to abc; have %v", expansions)
	}
}

func lettersOf(vs []uint64) []byte {
	out := make([]byte, len(vs))
	for i, v := range vs {
		out[i] = byte(v-1) + 'a'
	}
	return out
}

func expandRule(d *DAG, p int) []uint64 {
	var out []uint64
	for i := 0; i < d.RHSLen(p); i++ {
		if v, isRule := d.Elem(p, i); isRule {
			out = append(out, expandRule(d, int(v))...)
		} else {
			out = append(out, v)
		}
	}
	return out
}

func TestExpandIdentitySmallCases(t *testing.T) {
	cases := []string{
		"",
		"a",
		"ab",
		"aa",
		"aaa",
		"aaaa",
		"aaaaaaaa",
		"abab",
		"ababab",
		"abcabcabc",
		"abbbabcbb", // the triple case the canonical join repairs
		"abcbcabcabc",
		"abcdbcabcd",
		"aabaaab",
		"abcacbdbaecfbbbcgaafadcc", // Figure 2 sequence 1
		"abcabcdefabcgabcfabcdabc", // Figure 2 sequence 2
		"abcbdefabcbjklfjmdefmklf", // Figure 2 sequence 3 (as printed)
	}
	for _, c := range cases {
		g := build(t, c)
		if got := g.Expand(); !reflect.DeepEqual(got, sym(c)) {
			t.Errorf("Expand(%q) = %v, want %v", c, got, sym(c))
		}
	}
}

func TestGrammarSmallerThanInput(t *testing.T) {
	// 64 copies of abc: grammar must be logarithmic-ish, certainly far
	// smaller than the input.
	s := ""
	for i := 0; i < 64; i++ {
		s += "abc"
	}
	g := build(t, s)
	d := NewDAG(g, 100)
	st := d.ComputeStats()
	if st.Symbols >= len(s)/4 {
		t.Errorf("grammar symbols %d not much smaller than input %d", st.Symbols, len(s))
	}
	if st.InputLen != uint64(len(s)) {
		t.Errorf("InputLen = %d, want %d", st.InputLen, len(s))
	}
	if st.CompressionRatio() <= 4 {
		t.Errorf("compression ratio %.2f too small", st.CompressionRatio())
	}
}

func TestAppendReservedBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on reserved nonterminal bit")
		}
	}()
	New().Append(ntBit | 5)
}

// TestExpandThenAppend: expanding a grammar mid-stream leaves it
// appendable, with no expansion-length cache the next Append makes stale.
func TestExpandThenAppend(t *testing.T) {
	g := build(t, "abcabcabcabd")
	if got := g.Expand(); !reflect.DeepEqual(got, sym("abcabcabcabd")) {
		t.Fatalf("expand = %v", got)
	}
	g.AppendAll(sym("abcabd"))
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after expand and append: %v", err)
	}
	if got := g.Expand(); !reflect.DeepEqual(got, sym("abcabcabcabdabcabd")) {
		t.Fatalf("expand after append = %v", got)
	}
}

func TestDAGOccAndLens(t *testing.T) {
	g := build(t, "abcabcabc")
	d := NewDAG(g, 100)
	// Root occurs once and expands to 9 terminals.
	root := d.Root()
	if d.Occ(root) != 1 {
		t.Errorf("root occ = %d", d.Occ(root))
	}
	if d.ExpLen(root) != 9 {
		t.Errorf("root ExpLen = %d, want 9", d.ExpLen(root))
	}
	// Every non-root rule's occurrences times its uses relation: occ must
	// be >= 2 (rule utility) and expansion of all rules reconstructs.
	for p := range d.Len() {
		if p == d.Root() {
			continue
		}
		if d.Occ(p) < 2 {
			t.Errorf("rule %d occ = %d, want >= 2", d.ID(p), d.Occ(p))
		}
	}
	// Sum over rules of occ * (terminals directly in RHS) must equal the
	// input length.
	var total uint64
	for p := range d.Len() {
		var direct uint64
		for i := 0; i < d.RHSLen(p); i++ {
			if _, isRule := d.Elem(p, i); !isRule {
				direct++
			}
		}
		total += direct * d.Occ(p)
	}
	if total != g.InputLen() {
		t.Errorf("terminal mass %d != input length %d", total, g.InputLen())
	}
}

func TestDAGPrefixSuffix(t *testing.T) {
	g := build(t, "abcdeabcde")
	d := NewDAG(g, 3)
	root := d.Root()
	if got := d.Prefix(root, 3); !reflect.DeepEqual(got, sym("abc")) {
		t.Errorf("prefix = %v, want abc", got)
	}
	if got := d.Suffix(root, 3); !reflect.DeepEqual(got, sym("cde")) {
		t.Errorf("suffix = %v, want cde", got)
	}
	if got := d.Prefix(root, 100); len(got) != 3 {
		t.Errorf("prefix clamps to maxAffix, got %d", len(got))
	}
}

func TestTopoOrderChildrenFirst(t *testing.T) {
	g := build(t, "abcbcabcabcabcbcabcabc")
	d := NewDAG(g, 100)
	for p := range d.Len() {
		for i := range d.RHSLen(p) {
			if ref, isRule := d.Elem(p, i); isRule && int(ref) >= p {
				t.Fatalf("rule %d referenced rule %d does not precede it", d.ID(p), d.ID(int(ref)))
			}
		}
	}
	if d.Root() != d.Len()-1 || d.ID(d.Root()) != g.Root().ID() {
		t.Error("root is not last in postorder")
	}
}

func TestWriteASCIIStable(t *testing.T) {
	g := build(t, "abcabc")
	d := NewDAG(g, 10)
	var buf1, buf2 stringsWriter
	n1, err := d.WriteASCII(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := d.WriteASCII(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if buf1.s != buf2.s || n1 != n2 {
		t.Error("WriteASCII not deterministic")
	}
	if n1 == 0 {
		t.Error("empty rendering")
	}
}

type stringsWriter struct{ s string }

func (w *stringsWriter) Write(p []byte) (int, error) {
	w.s += string(p)
	return len(p), nil
}

func TestSequiturKVariantStillExpands(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		g := NewWithOptions(Options{MinRuleOccurrences: k})
		in := sym("abcabcabcabcxyzxyzxyzabc")
		g.AppendAll(in)
		if got := g.Expand(); !reflect.DeepEqual(got, in) {
			t.Errorf("k=%d: expansion mismatch", k)
		}
	}
}

func TestSequiturKProducesNoMoreRulesThanClassic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]uint64, 5000)
	for i := range in {
		in[i] = uint64(rng.Intn(8)) + 1
	}
	g2 := New()
	g2.AppendAll(in)
	g3 := NewWithOptions(Options{MinRuleOccurrences: 3})
	g3.AppendAll(in)
	if g3.NumRules() > g2.NumRules()*2 {
		t.Errorf("k=3 rules %d wildly exceeds classic %d", g3.NumRules(), g2.NumRules())
	}
	if got := g3.Expand(); !reflect.DeepEqual(got, in) {
		t.Error("k=3 expansion mismatch on random input")
	}
}

// Property: for arbitrary sequences over a small alphabet, the grammar
// expands to its input and maintains invariants.
func TestQuickExpandIdentity(t *testing.T) {
	f := func(bs []byte) bool {
		in := make([]uint64, len(bs))
		for i, b := range bs {
			in[i] = uint64(b%6) + 1
		}
		g := New()
		g.AppendAll(in)
		if g.CheckInvariants() != nil {
			return false
		}
		return reflect.DeepEqual(g.Expand(), in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: larger alphabet, longer runs.
func TestQuickExpandIdentityLong(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2000 + rng.Intn(3000)
		alpha := 2 + rng.Intn(30)
		in := make([]uint64, n)
		// Mix of random symbols and repeated motifs to exercise rule
		// creation and inlining.
		motif := make([]uint64, 3+rng.Intn(10))
		for i := range motif {
			motif[i] = uint64(rng.Intn(alpha)) + 1
		}
		for i := 0; i < n; {
			if rng.Intn(3) == 0 {
				for _, m := range motif {
					if i >= n {
						break
					}
					in[i] = m
					i++
				}
			} else {
				in[i] = uint64(rng.Intn(alpha)) + 1
				i++
			}
		}
		g := New()
		g.AppendAll(in)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(g.Expand(), in) {
			t.Fatalf("trial %d: expansion mismatch", trial)
		}
	}
}

func TestRulesAccessor(t *testing.T) {
	g := build(t, "abcabc")
	rs := g.Rules()
	if len(rs) != g.NumRules() {
		t.Errorf("Rules() len %d != NumRules %d", len(rs), g.NumRules())
	}
	if _, ok := rs[g.Root().ID()]; !ok {
		t.Error("Rules() missing root")
	}
}

func BenchmarkAppendRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint64, b.N)
	for i := range in {
		in[i] = uint64(rng.Intn(256)) + 1
	}
	b.ResetTimer()
	g := New()
	g.AppendAll(in)
}

func BenchmarkAppendRepetitive(b *testing.B) {
	in := make([]uint64, b.N)
	for i := range in {
		in[i] = uint64(i%9) + 1
	}
	b.ResetTimer()
	g := New()
	g.AppendAll(in)
}
