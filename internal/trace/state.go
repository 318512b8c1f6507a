package trace

import (
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// State codec for StatsAccum: the trace-layer piece of online-engine
// session handoff (internal/online WriteState/ReadEngine). The
// accumulator's observable state is its counter struct plus the two
// distinct-key sets; members are written sorted so the encoding is a
// pure function of the accumulated events, independent of insertion
// order or table growth history. Restored sets rehash the members, so
// a restored accumulator's Stats and future Adds match the original
// exactly (the `last` short-circuit key is deliberately not carried —
// it is a cache, invisible to Stats).

var statsStateMagic = [4]byte{'T', 'S', 'A', '1'}

// WriteState encodes the accumulator, returning the bytes written.
func (a *StatsAccum) WriteState(w io.Writer) (int64, error) {
	ww := wire.NewWriter(w, statsStateMagic)
	for _, v := range []uint64{
		a.s.Refs, a.s.HeapRefs, a.s.GlobalRefs, a.s.Loads, a.s.Stores,
		a.s.Allocs, a.s.Frees, a.s.AllocBytes, a.s.TraceBytes,
	} {
		ww.Uvarint(v)
	}
	for _, set := range []*u32set{&a.addrs, &a.pcs} {
		keys := set.members()
		ww.Uvarint(uint64(len(keys)))
		ww.Bool(set.zero)
		// Delta-code the sorted keys: addresses cluster, so gaps are
		// small and the varints short.
		prev := uint32(0)
		for _, k := range keys {
			ww.Uvarint(uint64(k - prev))
			prev = k
		}
	}
	return ww.Close()
}

// ReadStatsAccum decodes an accumulator written by WriteState.
func ReadStatsAccum(r io.Reader) (*StatsAccum, error) {
	rd := wire.NewReader(r, "trace: stats state", statsStateMagic)
	a := &StatsAccum{}
	for _, f := range []struct {
		name string
		dst  *uint64
	}{
		{"refs", &a.s.Refs}, {"heap refs", &a.s.HeapRefs},
		{"global refs", &a.s.GlobalRefs}, {"loads", &a.s.Loads},
		{"stores", &a.s.Stores}, {"allocs", &a.s.Allocs},
		{"frees", &a.s.Frees}, {"alloc bytes", &a.s.AllocBytes},
		{"trace bytes", &a.s.TraceBytes},
	} {
		*f.dst = rd.Uvarint(f.name)
	}
	for _, set := range []*u32set{&a.addrs, &a.pcs} {
		// Each set starts empty and grows as keys arrive, so it ends
		// sized to its members and a claimed size allocates nothing.
		set.initSet(0)
		n := rd.Uvarint("set size")
		if rd.Bool("set zero flag") {
			set.add(0)
		}
		prev := uint64(0)
		for j := uint64(0); j < n && rd.Err() == nil; j++ {
			// Keys ascend from 1 (zero travels as the flag above), so
			// every delta is positive and the sum stays in 32 bits.
			d := rd.Uvarint("set key delta")
			if d == 0 || d > math.MaxUint32-prev {
				rd.Failf("set key %d: delta %d out of range", j, d)
			}
			prev += d
			set.add(uint32(prev))
		}
		set.last = 0
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// members returns the set's nonzero keys in ascending order (the zero
// key is reported via the zero flag, not here).
func (t *u32set) members() []uint32 {
	out := make([]uint32, 0, t.n)
	for _, k := range t.slots {
		if k != 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
