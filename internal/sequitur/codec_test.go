package sequitur

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, in []uint64) (*Grammar, *Grammar, int64) {
	t.Helper()
	g := New()
	g.AppendAll(in)
	d := NewDAG(g, 100)
	var buf bytes.Buffer
	n, err := d.WriteBinary(&buf)
	if err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	return g, g2, n
}

func TestBinaryRoundTrip(t *testing.T) {
	in := sym("abcbcabcabcxyzxyzabc")
	g, g2, _ := roundTrip(t, in)
	if !reflect.DeepEqual(g2.Expand(), in) {
		t.Fatal("round-tripped grammar expands differently")
	}
	if g2.InputLen() != g.InputLen() {
		t.Errorf("input len %d != %d", g2.InputLen(), g.InputLen())
	}
	if g2.NumRules() != g.NumRules() {
		t.Errorf("rules %d != %d", g2.NumRules(), g.NumRules())
	}
}

func TestBinaryRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		in := make([]uint64, 2000)
		for i := range in {
			in[i] = uint64(rng.Intn(12)) + 1
		}
		_, g2, _ := roundTrip(t, in)
		if !reflect.DeepEqual(g2.Expand(), in) {
			t.Fatalf("trial %d: expansion mismatch", trial)
		}
		// The loaded grammar supports full DAG analysis.
		d := NewDAG(g2, 50)
		if root := d.Root(); d.ExpLen(root) != 2000 {
			t.Fatalf("trial %d: root expansion %d", trial, d.ExpLen(root))
		}
	}
}

func TestBinaryHalvesASCII(t *testing.T) {
	// §5.2: "the binary representation can be two times smaller" than
	// the ASCII grammar.
	var in []uint64
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30000; i++ {
		in = append(in, uint64(rng.Intn(200))+1)
	}
	g := New()
	g.AppendAll(in)
	d := NewDAG(g, 100)
	st := d.ComputeStats()
	bin := d.BinarySize()
	if bin*2 > st.ASCIIBytes*3 {
		t.Errorf("binary %d not meaningfully smaller than ASCII %d", bin, st.ASCIIBytes)
	}
	// BinarySize must match the actual encoding.
	var buf bytes.Buffer
	n, err := d.WriteBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != bin {
		t.Errorf("BinarySize %d != written %d", bin, n)
	}
}

func TestLoadedGrammarIsFrozen(t *testing.T) {
	_, g2, _ := roundTrip(t, sym("abcabcabc"))
	defer func() {
		if r := recover(); r != ErrFrozen {
			t.Errorf("recover = %v, want ErrFrozen", r)
		}
	}()
	g2.Append(1)
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("xxxx"),
		[]byte("WPS1"),                // missing count
		append([]byte("WPS1"), 0),     // zero rules
		append([]byte("WPS1"), 1),     // truncated rule
		{'W', 'P', 'S', '1', 2, 1, 3}, // rule 0 references rule 1 (forward)
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadBinaryForwardReferenceRejected(t *testing.T) {
	// Hand-build: 2 rules; rule 0 RHS = [ref rule 1] -> invalid
	// (postorder requires references to earlier rules only).
	data := []byte{'W', 'P', 'S', '1', 2, 1, byte(1<<1 | 1), 1, 0 << 1}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "postorder") {
		t.Errorf("err = %v", err)
	}
}

// TestRelaxedGrammarRoundTrip: grammars that went through cold-rule
// eviction relax digram uniqueness but must still encode and reload with
// the expansion (and input length) preserved — the store persists exactly
// these grammars for long-running locserve sessions.
func TestRelaxedGrammarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := make([]uint64, 6000)
	for i := range in {
		in[i] = uint64(rng.Intn(40)) + 1
	}
	g := New()
	g.AppendAll(in)
	before := g.NumRules()
	if evicted := g.EvictColdRules(before / 4); evicted == 0 {
		t.Fatal("eviction removed no rules; fixture too small")
	}
	if !g.Relaxed() {
		t.Fatal("grammar not marked relaxed after eviction")
	}
	if !reflect.DeepEqual(g.Expand(), in) {
		t.Fatal("eviction changed the expansion")
	}

	var buf bytes.Buffer
	if _, err := NewDAG(g, 100).WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary of relaxed grammar: %v", err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary of relaxed grammar: %v", err)
	}
	if !reflect.DeepEqual(g2.Expand(), in) {
		t.Fatal("relaxed grammar expands differently after round trip")
	}
	if g2.InputLen() != g.InputLen() {
		t.Errorf("input len %d != %d", g2.InputLen(), g.InputLen())
	}
	if g2.NumRules() != g.NumRules() {
		t.Errorf("rules %d != %d", g2.NumRules(), g.NumRules())
	}
}

// TestReadBinaryTruncationOffsets: every mid-stream cut of a valid
// encoding fails with a descriptive error carrying a byte offset, and
// never a bare io.EOF masquerading as a clean end.
func TestReadBinaryTruncationOffsets(t *testing.T) {
	g := New()
	g.AppendAll(sym("abcbcabcabcxyzxyzabc"))
	var buf bytes.Buffer
	if _, err := NewDAG(g, 100).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		_, err := ReadBinary(bytes.NewReader(enc[:cut]))
		if err == nil {
			t.Fatalf("cut at %d decoded successfully", cut)
		}
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: clean EOF leaked: %v", cut, err)
		}
		// Cuts past the magic know where they stopped.
		if cut >= len(codecMagic) && !strings.Contains(err.Error(), "offset") {
			t.Fatalf("cut at %d: error lacks offset: %v", cut, err)
		}
	}
}

// TestReadBinaryRejectsLengthOverflow: 65 rules, each the one before
// it twice, claim 2^66 terminals in 200 bytes. The length must not wrap
// to a value that Expand and InputLen would then trust.
func TestReadBinaryRejectsLengthOverflow(t *testing.T) {
	data := []byte{'W', 'P', 'S', '1', 65, 2, 1 << 1, 1 << 1}
	for i := 1; i < 65; i++ {
		ref := byte((i-1)<<1 | 1)
		data = append(data, 2, ref, ref)
	}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "2^64") {
		t.Errorf("err = %v", err)
	}
}

// TestReadBinaryRejectsEmptyRule: a zero-length right-hand side on a
// non-root rule is structural corruption; an empty root (zero-symbol
// input) still loads.
func TestReadBinaryRejectsEmptyRule(t *testing.T) {
	// 2 rules; rule 0 has an empty RHS, root references nothing.
	bad := []byte{'W', 'P', 'S', '1', 2, 0, 1, 1 << 1}
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "empty right-hand side") {
		t.Errorf("empty non-root rule: err = %v", err)
	}
	// 1 rule (the root) with an empty RHS: a grammar over no input.
	empty := []byte{'W', 'P', 'S', '1', 1, 0}
	g, err := ReadBinary(bytes.NewReader(empty))
	if err != nil {
		t.Fatalf("empty-root grammar: %v", err)
	}
	if g.InputLen() != 0 || len(g.Expand()) != 0 {
		t.Errorf("empty-root grammar: input %d, expand %d symbols", g.InputLen(), len(g.Expand()))
	}
}
