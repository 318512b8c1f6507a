package sequitur

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// evictionInput builds a repetitive sequence with enough structure to
// produce a deep rule hierarchy.
func evictionInput(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	motifs := [][]uint64{
		{1, 2, 3},
		{4, 5},
		{1, 2, 3, 4, 5},
		{6, 7, 8, 9},
		{2, 3, 6},
	}
	out := make([]uint64, 0, n)
	for len(out) < n {
		m := motifs[rng.Intn(len(motifs))]
		out = append(out, m...)
		if rng.Intn(4) == 0 {
			out = append(out, uint64(10+rng.Intn(6)))
		}
	}
	return out[:n]
}

func TestEvictPreservesExpansion(t *testing.T) {
	in := evictionInput(4000, 7)
	g := New()
	g.AppendAll(in)
	before := g.NumRules()
	if before < 8 {
		t.Fatalf("input too regular to test eviction: %d rules", before)
	}
	cap := before / 2
	evicted := g.EvictColdRules(cap)
	if evicted == 0 {
		t.Fatal("no rules evicted")
	}
	if g.NumRules() > cap {
		t.Fatalf("rules = %d after eviction, want <= %d", g.NumRules(), cap)
	}
	if !g.Relaxed() {
		t.Error("grammar not marked relaxed")
	}
	got := g.Expand()
	if len(got) != len(in) {
		t.Fatalf("expansion length %d != input %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("expansion diverges at %d: %d != %d", i, got[i], in[i])
		}
	}
	if err := CheckInvariants(g); err != nil {
		t.Fatalf("relaxed invariants violated: %v", err)
	}
}

func TestEvictThenAppend(t *testing.T) {
	in := evictionInput(3000, 11)
	g := New()
	g.AppendAll(in[:2000])
	g.EvictColdRules(4)
	g.AppendAll(in[2000:])
	got := g.Expand()
	if len(got) != len(in) {
		t.Fatalf("expansion length %d != input %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("expansion diverges at %d after post-eviction appends", i)
		}
	}
	if err := CheckInvariants(g); err != nil {
		t.Fatalf("invariants violated after post-eviction appends: %v", err)
	}
}

func TestEvictDeterministic(t *testing.T) {
	in := evictionInput(2500, 3)
	build := func() *Grammar {
		g := New()
		g.AppendAll(in[:1500])
		g.EvictColdRules(6)
		g.AppendAll(in[1500:])
		g.EvictColdRules(6)
		return g
	}
	g1, g2 := build(), build()
	var a, b bytes.Buffer
	if _, err := NewDAG(g1, 100).WriteASCII(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDAG(g2, 100).WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical build+evict sequences produced different grammars")
	}
}

func TestEvictToFloorKeepsRoot(t *testing.T) {
	g := New()
	g.AppendAll(evictionInput(1000, 5))
	g.EvictColdRules(0) // clamped to 1: only the root survives
	if g.NumRules() != 1 {
		t.Fatalf("rules = %d, want 1 (root only)", g.NumRules())
	}
	if got := g.Expand(); uint64(len(got)) != g.InputLen() {
		t.Fatalf("expansion length %d != input %d", len(got), g.InputLen())
	}
}

func TestEvictNoopBelowCap(t *testing.T) {
	g := New()
	g.AppendAll(evictionInput(800, 9))
	if n := g.EvictColdRules(g.NumRules()); n != 0 {
		t.Fatalf("evicted %d rules with cap >= live rules", n)
	}
	if g.Relaxed() {
		t.Error("no-op eviction must not relax the grammar")
	}
	if err := CheckInvariants(g); err != nil {
		t.Fatalf("grammar corrupted by no-op eviction: %v", err)
	}
}

func TestEvictFrozenPanics(t *testing.T) {
	g := New()
	g.AppendAll(evictionInput(500, 13))
	var buf bytes.Buffer
	if _, err := NewDAG(g, 100).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	frozen, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("EvictColdRules on a frozen grammar did not panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrFrozen) {
			t.Fatalf("panic value = %v, want ErrFrozen", v)
		}
	}()
	frozen.EvictColdRules(1)
}
