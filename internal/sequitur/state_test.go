package sequitur

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// stateTestInput builds a sequence with enough repetition to form a
// deep rule hierarchy.
func stateTestInput(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	motifs := [][]uint64{
		{1, 2, 3},
		{4, 5, 4, 5},
		{1, 2, 3, 6},
		{7, 7, 7, 7},
		{8, 9},
	}
	var out []uint64
	for len(out) < n {
		out = append(out, motifs[rng.Intn(len(motifs))]...)
		if rng.Intn(4) == 0 {
			out = append(out, uint64(rng.Intn(16)))
		}
	}
	return out[:n]
}

// TestStateRoundTrip checks the core handoff invariant: serializing a
// grammar mid-stream, restoring it, and appending the remainder yields
// a grammar identical to one that saw the whole stream uninterrupted —
// same rules, same IDs, same digram table, same future behaviour.
func TestStateRoundTrip(t *testing.T) {
	for _, split := range []int{0, 1, 7, 250, 499, 500} {
		input := stateTestInput(500, 42)

		full := New()
		full.AppendAll(input)

		half := New()
		half.AppendAll(input[:split])

		var buf bytes.Buffer
		n, err := half.WriteState(&buf)
		if err != nil {
			t.Fatalf("split=%d: WriteState: %v", split, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("split=%d: WriteState reported %d bytes, wrote %d", split, n, buf.Len())
		}

		restored, err := ReadState(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("split=%d: ReadState: %v", split, err)
		}
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("split=%d: restored invariants: %v", split, err)
		}
		restored.AppendAll(input[split:])
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("split=%d: continued invariants: %v", split, err)
		}

		if got, want := restored.Expand(), input; !reflect.DeepEqual(got, want) {
			t.Fatalf("split=%d: continued grammar expands wrong", split)
		}

		// Bit-identical structure: re-serializing both must match.
		var fullState, contState bytes.Buffer
		if _, err := full.WriteState(&fullState); err != nil {
			t.Fatalf("WriteState(full): %v", err)
		}
		if _, err := restored.WriteState(&contState); err != nil {
			t.Fatalf("WriteState(continued): %v", err)
		}
		if !bytes.Equal(fullState.Bytes(), contState.Bytes()) {
			t.Fatalf("split=%d: continued grammar state differs from uninterrupted grammar", split)
		}
		if full.nextID != restored.nextID {
			t.Fatalf("split=%d: nextID %d != %d", split, restored.nextID, full.nextID)
		}
	}
}

// TestStateDigramTableExact verifies the rebuilt digram table matches
// the live one entry for entry — same keys, same registered occurrence
// (rule and position) — for a canonical grammar.
func TestStateDigramTableExact(t *testing.T) {
	input := stateTestInput(400, 7)
	// Include an overlapping run to pin the first-pair-wins rule.
	input = append(input, 3, 3, 3, 3, 3, 1, 2)

	g := New()
	g.AppendAll(input)

	var buf bytes.Buffer
	if _, err := g.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}

	want := digramEntries(g)
	got := digramEntries(r)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("digram tables differ:\n live=%v\n rebuilt=%v", want, got)
	}
}

// digramEntries maps each registered digram to (owning rule ID, index in
// rule) of the symbol the table points at.
func digramEntries(g *Grammar) map[digram][2]uint64 {
	// Position index: symbol handle -> (rule, offset).
	type pos struct{ rule, idx uint64 }
	where := make(map[symID]pos)
	g.eachRule(func(r *Rule) {
		i := uint64(0)
		for si := r.first(); !g.at(si).isGuard(); si = g.at(si).next {
			where[si] = pos{r.id, i}
			i++
		}
	})
	out := make(map[digram][2]uint64)
	g.digrams.all(func(d digram, s symID) bool {
		p := where[s]
		out[d] = [2]uint64{p.rule, p.idx}
		return true
	})
	return out
}

// TestStateRelaxedGrammar checks that an evicted (relaxed) grammar
// restores exactly: continuing an identical append+evict schedule from
// the restored grammar converges with the uninterrupted one. Exactness
// holds even here because the digram table is serialized explicitly
// (eviction leaves it history-dependent, not structure-derivable).
func TestStateRelaxedGrammar(t *testing.T) {
	input := stateTestInput(600, 99)
	const split = 300
	step := func(g *Grammar, i int, v uint64) {
		g.Append(v)
		if i%100 == 99 {
			g.EvictColdRules(8)
		}
	}

	full := New()
	for i, v := range input {
		step(full, i, v)
	}
	if !full.Relaxed() {
		t.Fatal("test setup: expected relaxed grammar")
	}

	half := New()
	for i, v := range input[:split] {
		step(half, i, v)
	}
	var buf bytes.Buffer
	if _, err := half.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Relaxed() {
		t.Fatal("relaxed flag lost in round trip")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("restored relaxed grammar invariants: %v", err)
	}
	if !reflect.DeepEqual(digramEntries(half), digramEntries(r)) {
		t.Fatal("restored relaxed digram table differs from live table")
	}
	for i, v := range input[split:] {
		step(r, split+i, v)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("continued relaxed grammar invariants: %v", err)
	}
	if got := r.Expand(); !reflect.DeepEqual(got, input) {
		t.Fatal("continued relaxed grammar expands to wrong sequence")
	}
	var a, b bytes.Buffer
	if _, err := full.WriteState(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := r.WriteState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("continued relaxed grammar state differs from uninterrupted grammar")
	}
}

// TestStateFrozenRejected: grammars loaded from the WPS1 binary form
// have no digram index and must refuse to serialize live state.
func TestStateFrozenRejected(t *testing.T) {
	g := New()
	g.AppendAll(stateTestInput(100, 1))
	var bin bytes.Buffer
	if _, err := NewDAG(g, 100).WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	frozen, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frozen.WriteState(new(bytes.Buffer)); err == nil {
		t.Fatal("WriteState on frozen grammar: want error, got nil")
	}
}

// TestStateSequiturKRejected: SEQUITUR(k) is batch-only, so a k = 3
// grammar has no live state to write.
func TestStateSequiturKRejected(t *testing.T) {
	g := NewWithOptions(Options{MinRuleOccurrences: 3})
	g.AppendAll(stateTestInput(100, 1))
	if _, err := g.WriteState(new(bytes.Buffer)); err == nil {
		t.Fatal("WriteState on a k = 3 grammar: want error, got nil")
	}
}

// TestStateDecodeErrors exercises the validation paths.
func TestStateDecodeErrors(t *testing.T) {
	g := New()
	g.AppendAll(stateTestInput(200, 5))
	var buf bytes.Buffer
	if _, err := g.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("WPSX1234")},
		{"truncated header", good[:6]},
		{"truncated body", good[:len(good)-3]},
	}
	for _, tc := range cases {
		if _, err := ReadState(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}

	// Corrupt the recorded input length: root expansion check must fire.
	bad := append([]byte(nil), good...)
	// Header layout: magic(4) version(1) minOcc(1) flags(1) then input
	// uvarint; bump its low byte (safe while input < 64 after varint
	// continuation — 200 needs two bytes, flip the second).
	bad[8] ^= 0x01
	if _, err := ReadState(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted input length: want error, got nil")
	}
}

// TestStateEmptyGrammar: a grammar with no appends round-trips.
func TestStateEmptyGrammar(t *testing.T) {
	g := New()
	var buf bytes.Buffer
	if _, err := g.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := ReadState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.InputLen() != 0 || r.NumRules() != 1 {
		t.Fatalf("empty grammar restored as input=%d rules=%d", r.InputLen(), r.NumRules())
	}
	r.AppendAll([]uint64{1, 2, 1, 2})
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
