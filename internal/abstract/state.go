package abstract

import (
	"errors"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// State codec for sink-mode Streamers: the abstraction-layer piece of
// online-engine session handoff (internal/online WriteState/ReadEngine).
// Everything future Process calls depend on is captured — the naming
// maps, the live-object intervals, the allocation counter, the call
// stack — so a restored streamer names the rest of the stream exactly
// as the original would have. Only sink-mode streamers (SinkStreamer)
// serialize: batch streamers retain per-reference arrays, which belong
// in snapshot artifacts, not handoff state.
//
// Live intervals may reference Object instances that are absent from
// the Objects map (in SiteOnly/SiteContext modes the map keeps the
// first object per name while later same-named allocations live only
// in their interval), so each interval serializes its object inline;
// an interval's base/limit are derivable from the object's Base/Size.
// Objects are immutable after creation, so restoring value copies
// preserves behaviour.

var absStateMagic = [4]byte{'A', 'B', 'S', '1'}

// WriteState encodes the streamer's full state, returning the bytes
// written. Only sink-mode streamers (built with SinkStreamer) can be
// serialized.
func (s *Streamer) WriteState(w io.Writer) (int64, error) {
	st := s.st
	if st.emit == nil {
		return 0, errors.New("abstract: only sink-mode streamers serialize state")
	}
	ww := wire.NewWriter(w, absStateMagic)
	putObj := func(o *Object) {
		for _, v := range []uint64{o.Name, uint64(o.Base), uint64(o.Size), uint64(o.Site), o.Birth} {
			ww.Uvarint(v)
		}
		ww.Bool(o.Heap)
	}
	for _, v := range []uint64{uint64(st.a.mode), uint64(st.a.depth), st.counter, st.nextID, st.res.StackRefs, st.res.UnknownRefs} {
		ww.Uvarint(v)
	}
	// Heap map, then live intervals (already canonically ordered: sorted
	// by base, bases unique), then the naming maps and the call stack.
	// Maps travel sorted by key for a deterministic encoding.
	names := sortedKeys(st.res.Objects)
	ww.Uvarint(uint64(len(names)))
	for _, name := range names {
		putObj(st.res.Objects[name])
	}
	ww.Uvarint(uint64(len(st.live)))
	for _, iv := range st.live {
		putObj(iv.obj)
	}
	writeNames(ww, st.siteNames)
	writeNames(ww, st.ctxNames)
	writeNames(ww, st.addrNames)
	ww.Uvarint(uint64(len(st.callStack)))
	for _, pc := range st.callStack {
		ww.Uvarint(uint64(pc))
	}
	return ww.Close()
}

func sortedKeys[K uint32 | uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// writeNames encodes one naming map as a count and sorted (key, name)
// pairs.
func writeNames[K uint32 | uint64](ww *wire.Writer, m map[K]uint64) {
	keys := sortedKeys(m)
	ww.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		ww.Uvarint(uint64(k))
		ww.Uvarint(m[k])
	}
}

// Mode reports the streamer's heap-naming mode.
func (s *Streamer) Mode() Mode { return s.st.a.mode }

// ContextDepth reports the streamer's calling-context depth (meaningful
// in SiteContext mode).
func (s *Streamer) ContextDepth() int { return s.st.a.depth }

// ReadStreamer decodes a sink-mode streamer written by WriteState,
// forwarding future abstracted references to emit. The abstractor
// configuration (mode, context depth) travels with the state; callers
// holding expectations about it should check Mode/ContextDepth.
func ReadStreamer(r io.Reader, emit func(name uint64, pc, addr uint32)) (*Streamer, error) {
	if emit == nil {
		return nil, errors.New("abstract: ReadStreamer requires an emit sink")
	}
	rd := wire.NewReader(r, "abstract: state", absStateMagic)
	getObj := func() Object {
		return Object{
			Name:  rd.Uvarint("object name"),
			Base:  rd.U32("object base"),
			Size:  rd.U32("object size"),
			Site:  rd.U32("object site"),
			Birth: rd.Uvarint("object birth"),
			Heap:  rd.Bool("object heap flag"),
		}
	}

	mode := rd.Count("mode", uint64(SiteContext))
	depth := rd.Count("context depth", math.MaxInt32)
	if rd.Err() == nil && depth < 1 {
		rd.Failf("context depth %d", depth)
	}
	a := &Abstractor{mode: Mode(mode), depth: int(depth)}
	st := a.newState(0)
	st.emit = emit
	st.counter = rd.Uvarint("allocation counter")
	st.nextID = rd.Uvarint("next name")
	st.res.StackRefs = rd.Uvarint("stack refs")
	st.res.UnknownRefs = rd.Uvarint("unknown refs")

	// Nothing below is sized by a claimed count: maps and slices grow
	// only as the input delivers entries.
	n := rd.Uvarint("object count")
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		o := getObj()
		if _, dup := st.res.Objects[o.Name]; dup {
			rd.Failf("object name %d duplicated", o.Name)
		}
		if o.Name == 0 || o.Name >= st.nextID {
			rd.Failf("object name %d outside [1,%d)", o.Name, st.nextID)
		}
		obj := st.newObject()
		*obj = o
		st.res.Objects[o.Name] = obj
	}
	n = rd.Uvarint("live interval count")
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		o := getObj()
		if i > 0 && o.Base <= st.live[i-1].base {
			rd.Failf("live intervals out of order at %d", i)
		}
		obj := st.newObject()
		*obj = o
		// Reuse the heap-map instance when it is the same object, so
		// pointer identity matches the original where it held there.
		if m := st.res.Objects[o.Name]; m != nil && *m == o {
			obj = m
		}
		st.live = append(st.live, interval{base: o.Base, limit: o.Base + o.Size, obj: obj})
	}
	readNames(rd, st.siteNames, rd.U32)
	readNames(rd, st.ctxNames, rd.Uvarint)
	readNames(rd, st.addrNames, rd.U32)
	n = rd.Uvarint("call stack depth")
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		st.callStack = append(st.callStack, rd.U32("call stack entry"))
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return &Streamer{st: st}, nil
}

// readNames decodes one naming map written by writeNames.
func readNames[K uint32 | uint64](rd *wire.Reader, m map[K]uint64, key func(string) K) {
	n := rd.Uvarint("name count")
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		k := key("name key")
		m[k] = rd.Uvarint("name value")
	}
}
