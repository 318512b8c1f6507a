package sequitur

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzExpandIdentity fuzzes the core SEQUITUR invariant: for any input,
// the grammar expands back to it, maintains digram uniqueness and rule
// utility, and is the grammar the naive SEQUITUR (naive_test.go) builds.
func FuzzExpandIdentity(f *testing.F) {
	f.Add([]byte("abcbcabcabc"))
	f.Add([]byte("abbbabcbb"))
	f.Add([]byte("aaaaaaaa"))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 1, 2, 1, 2, 3, 3, 3, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Minimizing an interesting input runs this body on about len²/2
		// shorter candidates, so each run must stay well under a
		// millisecond or the minimizer holds a worker for the whole
		// fuzzing budget: inputs are cut at 1,024 symbols.
		if len(data) > 1024 {
			data = data[:1024]
		}
		in := make([]uint64, len(data))
		for i, b := range data {
			in[i] = uint64(b) + 1
		}
		g := New()
		g.AppendAll(in)
		if err := CheckInvariants(g); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		got := g.Expand()
		if !reflect.DeepEqual(got, in) {
			t.Fatal("expansion mismatch")
		}
		if want := newRefDAG(g, 1).expand(g.Root()); !slices.Equal(got, want) {
			t.Fatal("Expand differs from the reference's recursive expansion")
		}
		// The naive oracle is quadratic: at 1,024 symbols it takes about
		// 4 ms a run under fuzzing instrumentation, at 256 under half a
		// millisecond.
		if len(in) <= 256 {
			sameAsOracle(t, "input", g, in)
		}
	})
}

// FuzzBinaryCodec fuzzes both directions: arbitrary bytes must never
// panic the reader, and valid grammars must round-trip.
func FuzzBinaryCodec(f *testing.F) {
	f.Add([]byte("WPS1"))
	f.Add([]byte("abcabcabc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Direction 1: arbitrary input to the reader.
		if g, err := ReadBinary(bytes.NewReader(data)); err == nil && g.InputLen() <= 1<<16 {
			// A successfully parsed grammar must at least expand
			// without panicking. A few bytes can encode an expansion
			// of exponential length, so only short ones are
			// materialized.
			g.Expand()
		}
		// Direction 2: treat data as a symbol stream, encode, decode.
		if len(data) == 0 || len(data) > 2048 {
			return
		}
		in := make([]uint64, len(data))
		for i, b := range data {
			in[i] = uint64(b) + 1
		}
		g := New()
		g.AppendAll(in)
		var buf bytes.Buffer
		if _, err := NewDAG(g, 100).WriteBinary(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := CheckInvariants(g); err != nil {
			t.Fatalf("invariants after DAG construction: %v", err)
		}
		g2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if err := CheckInvariants(g2); err != nil {
			t.Fatalf("invariants of decoded grammar: %v", err)
		}
		if !reflect.DeepEqual(g2.Expand(), in) {
			t.Fatal("round-trip mismatch")
		}
	})
}
