package sequitur

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/abstract"
	"repro/internal/wire"
	"repro/internal/workload"
)

// RHS describes one rule's right-hand side for the oracles: for each
// position, either a terminal value or a reference to another rule.
type RHS struct {
	// Terminals[i] is valid when Refs[i] == nil.
	Terminals []uint64
	// Refs[i] is non-nil for nonterminal positions.
	Refs []*Rule
}

// Len returns the number of RHS positions.
func (h RHS) Len() int { return len(h.Refs) }

// RHS materializes the rule's right-hand side.
func (r *Rule) RHS() RHS {
	g := r.g
	var h RHS
	for si := r.first(); ; {
		s := g.at(si)
		if s.isGuard() {
			break
		}
		if s.rule != nilRule {
			h.Refs = append(h.Refs, g.ruleAt(s.rule))
			h.Terminals = append(h.Terminals, 0)
		} else {
			h.Refs = append(h.Refs, nil)
			h.Terminals = append(h.Terminals, s.value)
		}
		si = s.next
	}
	return h
}

// refDAG is the map-based DAG construction the flat DAG replaced, kept
// as an oracle: rules keyed by ID in maps, right-hand sides materialized
// per rule, affixes as one slice per rule, expansion lengths in a map.
type refDAG struct {
	G        *Grammar
	Order    []*Rule
	Occ      map[uint64]uint64
	RHS      map[uint64]RHS
	lens     map[uint64]uint64
	prefixes map[uint64][]uint64
	suffixes map[uint64][]uint64
	maxAffix int
	orderIdx map[uint64]int
}

func newRefDAG(g *Grammar, maxAffix int) *refDAG {
	if maxAffix < 1 {
		maxAffix = 1
	}
	d := &refDAG{
		G:        g,
		Occ:      make(map[uint64]uint64, g.nRules),
		RHS:      make(map[uint64]RHS, g.nRules),
		lens:     make(map[uint64]uint64, g.nRules),
		prefixes: make(map[uint64][]uint64, g.nRules),
		suffixes: make(map[uint64][]uint64, g.nRules),
		maxAffix: maxAffix,
	}
	g.eachRule(func(r *Rule) { d.RHS[r.id] = r.RHS() })
	d.topoSort()
	d.computeOcc()
	d.computeLens()
	d.computeAffixes()
	d.orderIdx = make(map[uint64]int, len(d.Order))
	for i, r := range d.Order {
		d.orderIdx[r.ID()] = i
	}
	return d
}

func (d *refDAG) topoSort() {
	visited := make(map[uint64]bool, d.G.nRules)
	var order []*Rule
	type frame struct {
		r    *Rule
		next int
	}
	push := func(stack []frame, r *Rule) []frame {
		visited[r.id] = true
		return append(stack, frame{r: r})
	}
	stack := push(nil, d.G.root)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		rhs := d.RHS[top.r.id]
		advanced := false
		for top.next < rhs.Len() {
			ref := rhs.Refs[top.next]
			top.next++
			if ref != nil && !visited[ref.id] {
				stack = push(stack, ref)
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		order = append(order, top.r)
		stack = stack[:len(stack)-1]
	}
	d.G.eachRule(func(r *Rule) {
		if !visited[r.id] {
			order = append(order, r)
		}
	})
	d.Order = order
}

func (d *refDAG) computeOcc() {
	for _, r := range d.Order {
		d.Occ[r.id] = 0
	}
	d.Occ[d.G.root.id] = 1
	for i := len(d.Order) - 1; i >= 0; i-- {
		r := d.Order[i]
		n := d.Occ[r.id]
		if n == 0 {
			continue
		}
		rhs := d.RHS[r.id]
		for _, ref := range rhs.Refs {
			if ref != nil {
				d.Occ[ref.id] += n
			}
		}
	}
}

func (d *refDAG) computeLens() {
	for _, r := range d.Order {
		var n uint64
		rhs := d.RHS[r.id]
		for _, ref := range rhs.Refs {
			if ref == nil {
				n++
			} else {
				n += d.lens[ref.id]
			}
		}
		d.lens[r.id] = n
	}
}

func (d *refDAG) computeAffixes() {
	for _, r := range d.Order {
		rhs := d.RHS[r.id]
		pre := make([]uint64, 0, d.maxAffix)
		for i := 0; i < rhs.Len() && len(pre) < d.maxAffix; i++ {
			if ref := rhs.Refs[i]; ref != nil {
				pre = append(pre, d.prefixes[ref.id][:min(d.maxAffix-len(pre), len(d.prefixes[ref.id]))]...)
			} else {
				pre = append(pre, rhs.Terminals[i])
			}
		}
		suf := make([]uint64, 0, d.maxAffix)
		for i := rhs.Len() - 1; i >= 0 && len(suf) < d.maxAffix; i-- {
			if ref := rhs.Refs[i]; ref != nil {
				rs := d.suffixes[ref.id]
				for j := len(rs) - 1; j >= 0 && len(suf) < d.maxAffix; j-- {
					suf = append(suf, rs[j])
				}
			} else {
				suf = append(suf, rhs.Terminals[i])
			}
		}
		for i, j := 0, len(suf)-1; i < j; i, j = i+1, j-1 {
			suf[i], suf[j] = suf[j], suf[i]
		}
		d.prefixes[r.id] = pre
		d.suffixes[r.id] = suf
	}
}

// expand expands rule r recursively from its materialized right-hand
// side.
func (d *refDAG) expand(r *Rule) []uint64 {
	var out []uint64
	rhs := d.RHS[r.id]
	for i, ref := range rhs.Refs {
		if ref == nil {
			out = append(out, rhs.Terminals[i])
		} else {
			out = append(out, d.expand(ref)...)
		}
	}
	return out
}

func (d *refDAG) writeBinary(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w, codecMagic)
	ww.Uvarint(uint64(len(d.Order)))
	for _, r := range d.Order {
		rhs := d.RHS[r.ID()]
		ww.Uvarint(uint64(rhs.Len()))
		for i, ref := range rhs.Refs {
			if ref != nil {
				ww.Uvarint(uint64(d.orderIdx[ref.ID()])<<1 | 1)
			} else {
				ww.Uvarint(rhs.Terminals[i] << 1)
			}
		}
	}
	return ww.Close()
}

func (d *refDAG) computeStats() Stats {
	st := Stats{Rules: d.G.nRules, InputLen: d.G.input}
	terms := make(map[uint64]struct{})
	d.G.eachRule(func(r *Rule) {
		rhs := d.RHS[r.id]
		st.Symbols += rhs.Len()
		st.ASCIIBytes += refASCIIRuleSize(r.id, rhs)
		for i, ref := range rhs.Refs {
			if ref == nil {
				terms[rhs.Terminals[i]] = struct{}{}
			}
		}
	})
	st.Terminals = len(terms)
	return st
}

func refASCIIRuleSize(id uint64, rhs RHS) uint64 {
	n := uint64(len(fmt.Sprintf("%d", id))) + 4 // "id -> "... plus newline
	for i, ref := range rhs.Refs {
		if ref != nil {
			n += uint64(len(fmt.Sprintf("R%d", ref.id))) + 1
		} else {
			n += uint64(len(fmt.Sprintf("%d", rhs.Terminals[i]))) + 1
		}
	}
	return n
}

func (d *refDAG) writeASCII(w io.Writer) (int64, error) {
	var total int64
	for _, r := range d.G.liveRulesSorted() {
		id := r.id
		rhs := d.RHS[id]
		n, err := fmt.Fprintf(w, "%d ->", id)
		total += int64(n)
		if err != nil {
			return total, err
		}
		for i, ref := range rhs.Refs {
			if ref != nil {
				n, err = fmt.Fprintf(w, " R%d", ref.id)
			} else {
				n, err = fmt.Fprintf(w, " %d", rhs.Terminals[i])
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

// dagCase is one grammar and the sequence it represents.
type dagCase struct {
	name string
	g    *Grammar
	in   []uint64
}

// dagReferenceGrammars returns the grammars TestDAGMatchesReference
// checks: every locbench workload
// family at 30k references, the same families grown with the rule table
// bounded at 64 rules (as the online engine evicts after each 4096-event
// chunk), and each evicted grammar reloaded both from its WPS1 encoding
// and from its live state, the latter then grown by another chunk.
func dagReferenceGrammars(t *testing.T) []dagCase {
	t.Helper()
	var out []dagCase
	add := func(name string, g *Grammar, in []uint64) { out = append(out, dagCase{name, g, in}) }
	for _, bench := range workload.Names() {
		buf, err := workload.Generate(bench, 30_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		names := abstract.New(abstract.BirthID).Abstract(buf).Names
		g := New()
		g.AppendAll(names)
		add(bench, g, names)

		head, tail := names[:len(names)-4096], names[len(names)-4096:]
		ev := New()
		for i := 0; i < len(head); i += 4096 {
			ev.AppendAll(head[i:min(i+4096, len(head))])
			ev.EvictColdRules(64)
		}
		add(bench+"/evicted", ev, head)

		var bin bytes.Buffer
		if _, err := NewDAG(ev, 1).WriteBinary(&bin); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadBinary(&bin)
		if err != nil {
			t.Fatal(err)
		}
		add(bench+"/evicted/ReadBinary", loaded, head)

		var st bytes.Buffer
		if _, err := ev.WriteState(&st); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadState(&st)
		if err != nil {
			t.Fatal(err)
		}
		restored.AppendAll(tail)
		restored.EvictColdRules(64)
		add(bench+"/evicted/ReadState", restored, names)
	}
	return out
}

// TestDAGMatchesReference checks the flat DAG against the map-based
// construction it replaced: postorder, occurrence counts, expansion
// lengths, right-hand sides, prefixes and suffixes at three affix
// bounds, the expanded sequence, both encodings' bytes and the size
// statistics.
func TestDAGMatchesReference(t *testing.T) {
	for _, c := range dagReferenceGrammars(t) {
		name, g := c.name, c.g
		for _, maxAffix := range []int{1, 8, 100} {
			ref := newRefDAG(g, maxAffix)
			d := NewDAG(g, maxAffix)
			if d.Len() != len(ref.Order) {
				t.Fatalf("%s: Len %d, reference %d rules", name, d.Len(), len(ref.Order))
			}
			if d.Root() != ref.orderIdx[g.Root().ID()] {
				t.Fatalf("%s: root at position %d, reference %d", name, d.Root(), ref.orderIdx[g.Root().ID()])
			}
			for p := range d.Len() {
				id := d.ID(p)
				if id != ref.Order[p].ID() {
					t.Fatalf("%s maxAffix %d: postorder differs at position %d", name, maxAffix, p)
				}
				if d.Occ(p) != ref.Occ[id] || d.ExpLen(p) != ref.lens[id] {
					t.Fatalf("%s: rule %d occ/len %d/%d, reference %d/%d",
						name, id, d.Occ(p), d.ExpLen(p), ref.Occ[id], ref.lens[id])
				}
				rhs := ref.RHS[id]
				if d.RHSLen(p) != rhs.Len() {
					t.Fatalf("%s: rule %d RHS length %d, reference %d", name, id, d.RHSLen(p), rhs.Len())
				}
				for i := range rhs.Refs {
					v, isRule := d.Elem(p, i)
					if isRule {
						v = d.ID(int(v))
					}
					want, wantRule := rhs.Terminals[i], rhs.Refs[i] != nil
					if wantRule {
						want = rhs.Refs[i].ID()
					}
					if v != want || isRule != wantRule {
						t.Fatalf("%s: rule %d element %d = (%d, %v), reference (%d, %v)", name, id, i, v, isRule, want, wantRule)
					}
				}
				for _, n := range []int{1, maxAffix/2 + 1, maxAffix} {
					wantPre, wantSuf := ref.prefixes[id], ref.suffixes[id]
					wantPre, wantSuf = wantPre[:min(n, len(wantPre))], wantSuf[len(wantSuf)-min(n, len(wantSuf)):]
					if got := d.Prefix(p, n); !reflect.DeepEqual(got, wantPre) {
						t.Fatalf("%s maxAffix %d: rule %d prefix(%d) = %v, reference %v", name, maxAffix, id, n, got, wantPre)
					}
					if got := d.Suffix(p, n); !reflect.DeepEqual(got, wantSuf) {
						t.Fatalf("%s maxAffix %d: rule %d suffix(%d) = %v, reference %v", name, maxAffix, id, n, got, wantSuf)
					}
				}
			}
			if maxAffix != 8 {
				continue
			}
			// Everything below is independent of maxAffix.
			got := d.Expand()
			if want := ref.expand(g.Root()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Expand differs from the recursive expansion", name)
			}
			if !reflect.DeepEqual(got, c.in) {
				t.Fatalf("%s: Expand differs from the input", name)
			}
			var bin, refBin, ascii, refASCII bytes.Buffer
			if _, err := d.WriteBinary(&bin); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.writeBinary(&refBin); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bin.Bytes(), refBin.Bytes()) {
				t.Fatalf("%s: WriteBinary bytes differ from the reference", name)
			}
			n, err := d.WriteASCII(&ascii)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.writeASCII(&refASCII); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ascii.Bytes(), refASCII.Bytes()) || n != int64(ascii.Len()) {
				t.Fatalf("%s: WriteASCII bytes differ from the reference", name)
			}
			st := d.ComputeStats()
			if want := ref.computeStats(); st != want {
				t.Fatalf("%s: ComputeStats %+v, reference %+v", name, st, want)
			}
			if st.ASCIIBytes != uint64(ascii.Len()) {
				t.Fatalf("%s: ASCIIBytes %d, WriteASCII wrote %d", name, st.ASCIIBytes, ascii.Len())
			}
		}
	}
}
