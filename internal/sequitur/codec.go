package sequitur

import (
	"errors"
	"io"
	"math"

	"repro/internal/wire"
)

// This file implements the binary grammar codec. §5.2 notes the WPS sizes
// reported are for the ASCII grammar and "the binary representation can be
// two times smaller"; this varint encoding realizes that form and lets
// WPS representations be persisted and reloaded for later analysis.
//
// Format: magic, rule count, then each rule as (RHS length, symbols).
// Rules are renumbered densely in postorder with the root last; a symbol
// is value<<1 for a terminal and index<<1|1 for a rule reference, so the
// common small values stay one byte. Loaded grammars are frozen: they
// support analysis (DAG construction, Expand) but not Append, since
// the digram index is not reconstructed.

var codecMagic = [4]byte{'W', 'P', 'S', '1'}

// ErrFrozen is returned (via panic recovery in callers' tests) when
// appending to a grammar loaded from the binary form.
var ErrFrozen = errors.New("sequitur: grammar loaded from binary is read-only")

// WriteBinary encodes the grammar in the compact binary form, returning
// the number of bytes written.
func (d *DAG) WriteBinary(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w, codecMagic)
	ww.Uvarint(uint64(d.Len()))
	for _, sp := range d.rhs {
		ww.Uvarint(uint64(sp.hi - sp.lo))
		for s := sp.lo; s < sp.hi; s++ {
			if ref := d.refs[s]; ref >= 0 {
				ww.Uvarint(uint64(ref)<<1 | 1)
			} else {
				ww.Uvarint(d.terms[s] << 1)
			}
		}
	}
	return ww.Close()
}

// BinarySize computes the encoded size without keeping the bytes.
func (d *DAG) BinarySize() uint64 {
	n, _ := d.WriteBinary(io.Discard) // io.Discard never fails
	return uint64(n)
}

// ReadBinary decodes a grammar from the binary form. The result is frozen:
// Append panics with ErrFrozen; analysis entry points (NewDAG,
// Expand, Rules) work normally. Truncated or corrupt input fails with an
// error naming the byte offset of the damage.
func ReadBinary(r io.Reader) (*Grammar, error) {
	rd := wire.NewReader(r, "sequitur: WPS1", codecMagic)
	nRules := rd.Count("rule count", 1<<28)
	if rd.Err() == nil && nRules == 0 {
		rd.Failf("empty grammar")
	}
	g := &Grammar{frozen: true}
	g.arena.init()
	// Postorder means a body references only rules already read, so
	// rules materialize as they arrive and a false count costs nothing
	// before the input runs out. lens[i] is rule i's expansion length.
	var rules []*Rule
	var lens []uint64
	for i := uint64(0); i < nRules && rd.Err() == nil; i++ {
		rhsLen := rd.Count("rule length", math.MaxUint32)
		// Every non-root rule must produce something: an empty body
		// expands to nothing, which no SEQUITUR (or relaxed,
		// post-eviction) grammar emits — it only appears in damaged
		// encodings. The root alone may be empty (a grammar over zero
		// input symbols).
		if rhsLen == 0 && i != nRules-1 {
			rd.Failf("rule %d has empty right-hand side", i)
		}
		if !g.arena.canAlloc(rhsLen + 1) {
			rd.Failf("rule %d: length %d overflows the symbol arena", i, rhsLen)
		}
		if rd.Err() != nil {
			break
		}
		r := g.materializeRule(i)
		var n uint64
		for j := uint64(0); j < rhsLen && rd.Err() == nil; j++ {
			sv := rd.Uvarint("rule symbol")
			si := g.arena.allocSymbol()
			s := g.at(si)
			add := uint64(1)
			if sv&1 == 1 {
				idx := sv >> 1
				if idx >= i {
					rd.Failf("rule %d references rule %d out of postorder", i, idx)
					break
				}
				s.rule = rules[idx].self
				s.value = ntBit | rules[idx].id
				rules[idx].uses++
				add = lens[idx]
			} else {
				s.value = sv >> 1
			}
			// Rules that each repeat the one before double the length,
			// so a few hundred bytes can claim more than 2^64
			// terminals; a wrapped length would make InputLen and
			// Expand disagree with the grammar.
			if n+add < n {
				rd.Failf("rule %d expands to more than 2^64 terminals", i)
				break
			}
			n += add
			// Raw append before the guard.
			gs := g.at(r.guard)
			last := gs.prev
			g.at(last).next = si
			s.prev = last
			s.next = r.guard
			gs.prev = si
		}
		rules = append(rules, r)
		lens = append(lens, n)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	g.nextID = nRules
	g.root = rules[nRules-1]
	g.input = lens[nRules-1]
	return g, nil
}
