// Package abstract implements the data-address abstractions of §3.1: the
// lossy mapping from raw data addresses to data-object names that makes
// SEQUITUR-discovered repetition meaningful at object granularity.
//
// Heap addresses are named by ⟨allocation site, global counter⟩ "birth
// identifiers" — the paper's maximum-discrimination scheme — or,
// alternatively, by allocation-site calling context of configurable depth,
// or left as raw addresses (both for ablation). Globals are named by the
// registered global object containing the address. Stack references are
// excluded, matching the paper's methodology.
package abstract

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Mode selects the heap-naming scheme.
type Mode uint8

// Heap abstraction modes.
const (
	// BirthID names heap objects ⟨allocation site, global counter⟩,
	// "maximum discrimination between heap objects" (§5.1, default).
	BirthID Mode = iota
	// SiteOnly names heap objects by allocation site alone (the paper's
	// "allocation site calling context" alternative, depth 1).
	SiteOnly
	// RawAddress skips abstraction: names are the addresses themselves.
	// §3.1 explains why this obfuscates patterns; the ablation benchmark
	// quantifies it.
	RawAddress
	// SiteContext names heap objects by allocation-site calling context:
	// the site plus the innermost ContextDepth-1 call sites on the stack
	// at allocation time. §3.1 cites depth 3 as "a useful abstraction
	// for studying the behavior of heap objects" (Seidl & Zorn). It
	// discriminates more than SiteOnly (one site serving many callers
	// splits per caller) but, unlike BirthID, still merges same-context
	// allocations.
	SiteContext
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case BirthID:
		return "birth-id"
	case SiteOnly:
		return "site-only"
	case RawAddress:
		return "raw-address"
	case SiteContext:
		return "site-context"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Object describes one named data object: the value of the heap map the
// paper builds from allocation information.
type Object struct {
	// Name is the object's abstract name (a dense ID usable as a
	// SEQUITUR terminal).
	Name uint64
	// Base and Size give the object's extent at the time of the trace.
	Base uint32
	Size uint32
	// Site is the allocation site (PC) that created the object; for
	// globals it is the registration site.
	Site uint32
	// Birth is the value of the global allocation counter when the
	// object was created.
	Birth uint64
	// Heap reports whether the object lives in the heap region.
	Heap bool
}

// Result is an abstracted trace: one name per load/store reference, in
// order, plus the heap map needed by packing-efficiency metrics and
// clustering.
type Result struct {
	// Names holds the abstract name of each (non-stack) reference.
	Names []uint64
	// PCs holds the referencing instruction for each entry of Names.
	PCs []uint32
	// Addrs holds the concrete address for each entry of Names (used by
	// cache simulation and clustering remaps).
	Addrs []uint32
	// Objects maps name -> object metadata.
	Objects map[uint64]*Object
	// Mode records the heap-naming scheme used.
	Mode Mode
	// StackRefs counts excluded stack references.
	StackRefs uint64
	// UnknownRefs counts references that hit no live object; they are
	// named by their raw address so no reference is lost.
	UnknownRefs uint64
}

// NumRefs returns the number of abstracted references.
func (r *Result) NumRefs() int { return len(r.Names) }

// interval is a live-object record ordered by base address.
type interval struct {
	base, limit uint32
	obj         *Object
}

// Abstractor turns raw traces into name sequences.
type Abstractor struct {
	mode  Mode
	depth int
}

// New returns an Abstractor using the given heap-naming mode. SiteContext
// uses the paper's depth of 3; use NewContext for other depths.
func New(mode Mode) *Abstractor { return &Abstractor{mode: mode, depth: 3} }

// NewContext returns a SiteContext abstractor with an explicit calling-
// context depth (>= 1; depth 1 behaves like SiteOnly).
func NewContext(depth int) *Abstractor {
	if depth < 1 {
		depth = 1
	}
	return &Abstractor{mode: SiteContext, depth: depth}
}

// Abstract processes the trace, building the heap map online from
// alloc/free records and renaming every load/store.
//
// Names are dense IDs assigned in first-touch order, which keeps the
// SEQUITUR terminal space compact. In RawAddress mode the name is the
// address itself.
func (a *Abstractor) Abstract(b *trace.Buffer) *Result {
	st := a.newState(b.Len())
	for _, e := range b.Events() {
		st.process(e)
	}
	return st.res
}

// Streamer exposes the online abstraction machinery one event at a
// time, for pipelines that fan a single decode pass out to several
// consumers (core.AnalyzeStream feeds trace statistics and abstraction
// from the same pass). hint sizes the result arrays. A Streamer is not
// safe for concurrent use.
type Streamer struct {
	st *state
}

// Streamer returns a fresh per-event abstraction pass.
func (a *Abstractor) Streamer(hint int) *Streamer {
	return &Streamer{st: a.newState(hint)}
}

// SinkStreamer returns a per-event abstraction pass that forwards each
// abstracted reference to emit instead of retaining the Names/PCs/Addrs
// arrays: the unbounded-stream mode the online analysis engine uses,
// where per-reference state must not grow with trace length. The heap
// map (Objects) and the excluded-reference counters are still
// maintained; Result().Names stays empty.
func (a *Abstractor) SinkStreamer(emit func(name uint64, pc, addr uint32)) *Streamer {
	st := a.newState(0)
	st.emit = emit
	return &Streamer{st: st}
}

// Process consumes one event in trace order.
func (s *Streamer) Process(e trace.Event) { s.st.process(e) }

// Result returns the abstraction built so far. The result shares state
// with the Streamer: callers must not call Process afterwards.
func (s *Streamer) Result() *Result { return s.st.res }

// Objects returns the heap map built so far. Unlike Result, it may be
// consulted between Process calls (the online engine snapshots it);
// callers must not mutate it.
func (s *Streamer) Objects() map[uint64]*Object { return s.st.res.Objects }

// Excluded returns the running counts of stack references (excluded by
// the paper's methodology) and references that hit no live object.
func (s *Streamer) Excluded() (stackRefs, unknownRefs uint64) {
	return s.st.res.StackRefs, s.st.res.UnknownRefs
}

// Object slab chunks: heap-map entries are handed out as pointers into
// chunks that never move, so pointer identity is stable. Chunks start at
// objChunkFirst objects and double per chunk up to objChunkLen, so a
// stream with few objects holds a small slab while allocation cost
// amortizes to one chunk per objChunkLen objects on a large one.
const (
	objChunkFirst = 64
	objChunkLen   = 1024
)

// state carries the online abstraction machinery over one event stream.
// It was formerly a bundle of closures; the flat struct-plus-methods
// form keeps the per-event path visible to the static callgraph (the
// hotalloc analyzer) and free of closure-environment indirection.
type state struct {
	a    *Abstractor
	res  *Result
	emit func(name uint64, pc, addr uint32)

	live    []interval // live-object intervals sorted by base
	lastHit interval   // findLive's most-recent hit; zero = invalid
	prevHit interval   // findLive's second cache way (alternation)
	nextID  uint64     // next dense name
	counter uint64     // global allocation counter (birth IDs)
	// siteNames dedupes names in SiteOnly mode.
	siteNames map[uint32]uint64
	// ctxNames dedupes names in SiteContext mode (key: context hash).
	ctxNames map[uint64]uint64
	// addrNames dedupes names in RawAddress mode and for unknown
	// references.
	addrNames map[uint32]uint64
	// callStack tracks activations for SiteContext naming.
	callStack []uint32
	// objChunk is the current Object slab chunk; a fresh chunk replaces
	// it when full (newObject), so heap-map entries cost zero per-record
	// heap allocations in steady state.
	objChunk []Object
}

// newState builds one abstraction pass's state. It runs once per stream;
// the per-event inner loop is the process method.
//
//lint:coldpath stream constructor; one allocation bundle per abstraction pass, never per record
func (a *Abstractor) newState(hint int) *state {
	return &state{
		a: a,
		res: &Result{
			Names:   make([]uint64, 0, hint),
			PCs:     make([]uint32, 0, hint),
			Addrs:   make([]uint32, 0, hint),
			Objects: make(map[uint64]*Object),
			Mode:    a.mode,
		},
		nextID:    1,
		siteNames: map[uint32]uint64{},
		ctxNames:  map[uint64]uint64{},
		addrNames: map[uint32]uint64{},
	}
}

// grow replaces the exhausted Object slab chunk with one twice its
// size, capped at objChunkLen.
//
//lint:coldpath amortized slab growth; runs log₂(objChunkLen/objChunkFirst) times, then once per objChunkLen objects, never per record
func (st *state) grow() {
	st.objChunk = make([]Object, 0, min(max(2*cap(st.objChunk), objChunkFirst), objChunkLen))
}

// newObject hands out a zero Object from the slab.
func (st *state) newObject() *Object {
	if len(st.objChunk) == cap(st.objChunk) {
		st.grow()
	}
	st.objChunk = append(st.objChunk, Object{})
	return &st.objChunk[len(st.objChunk)-1]
}

// contextHash mixes the allocation site with the innermost depth-1 call
// sites (FNV-1a) for SiteContext naming.
func (st *state) contextHash(site uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(v>>s) & 0xFF
			h *= prime64
		}
	}
	mix(site)
	for i, d := len(st.callStack)-1, 1; i >= 0 && d < st.a.depth; i, d = i-1, d+1 {
		mix(st.callStack[i])
	}
	return h
}

// findLive returns the live object containing addr, or nil. The binary
// search is hand-rolled: sort.Search's per-iteration closure call was a
// measurable slice of the per-reference cost. A two-entry cache of the
// most recent hits short-circuits the search for runs of references
// into one object and for tight loops alternating between two (the
// common stride patterns — the very locality this package exists to
// measure). The cache holds copies of the intervals (Object pointers
// are chunk-stable, so the obj fields cannot dangle) and is dropped
// whenever the live set changes.
func (st *state) findLive(addr uint32) *Object {
	if c := &st.lastHit; addr >= c.base && addr < c.limit {
		return c.obj
	}
	if c := st.prevHit; addr >= c.base && addr < c.limit {
		st.prevHit, st.lastHit = st.lastHit, c
		return c.obj
	}
	lo, hi := 0, len(st.live)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.live[mid].base > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	iv := st.live[lo-1]
	if addr < iv.limit {
		st.prevHit, st.lastHit = st.lastHit, iv
		return iv.obj
	}
	return nil
}

// insertLive inserts an interval keeping the slice sorted by base, and
// drops the findLive cache (the zero interval can contain no address).
func (st *state) insertLive(iv interval) {
	i := sort.Search(len(st.live), func(i int) bool { return st.live[i].base >= iv.base })
	st.live = append(st.live, interval{})
	copy(st.live[i+1:], st.live[i:])
	st.live[i] = iv
	st.lastHit, st.prevHit = interval{}, interval{}
}

// removeLive drops the interval starting at base, if present, and the
// findLive cache with it.
func (st *state) removeLive(base uint32) {
	i := sort.Search(len(st.live), func(i int) bool { return st.live[i].base >= base })
	if i < len(st.live) && st.live[i].base == base {
		st.live = append(st.live[:i], st.live[i+1:]...)
	}
	st.lastHit, st.prevHit = interval{}, interval{}
}

// nameForAddr names a raw address (RawAddress mode and unknown
// references), registering a synthetic 4-byte object on first touch.
func (st *state) nameForAddr(addr uint32) uint64 {
	if n, ok := st.addrNames[addr]; ok {
		return n
	}
	n := st.nextID
	st.nextID++
	st.addrNames[addr] = n
	obj := st.newObject()
	obj.Name = n
	obj.Base = addr
	obj.Size = 4
	obj.Heap = trace.RegionOf(addr) == trace.RegionHeap
	st.res.Objects[n] = obj
	return n
}

// process consumes one event in trace order: the per-event inner loop of
// every abstraction pass (batch, streaming, and online ingest).
//
//lint:hotpath runs once per trace event; the abstraction half of the ingest inner loop
func (st *state) process(e trace.Event) {
	a := st.a
	res := st.res
	switch e.Kind {
	case trace.Call:
		st.callStack = append(st.callStack, e.PC)
	case trace.Return:
		if len(st.callStack) > 0 {
			st.callStack = st.callStack[:len(st.callStack)-1]
		}
	case trace.Alloc:
		st.counter++
		if a.mode == RawAddress {
			// Raw mode ignores object structure entirely: no heap
			// map is built, every address is its own name.
			return
		}
		obj := st.newObject()
		obj.Base = e.Addr
		obj.Size = e.Size
		obj.Site = e.PC
		obj.Birth = st.counter
		obj.Heap = trace.RegionOf(e.Addr) == trace.RegionHeap
		switch a.mode {
		case RawAddress:
			// Unreachable: raw mode returned before building obj.
		case BirthID:
			obj.Name = st.nextID
			st.nextID++
		case SiteOnly:
			if n, ok := st.siteNames[e.PC]; ok {
				obj.Name = n
			} else {
				obj.Name = st.nextID
				st.nextID++
				st.siteNames[e.PC] = obj.Name
			}
		case SiteContext:
			key := st.contextHash(e.PC)
			if n, ok := st.ctxNames[key]; ok {
				obj.Name = n
			} else {
				obj.Name = st.nextID
				st.nextID++
				st.ctxNames[key] = obj.Name
			}
		}
		if _, dup := res.Objects[obj.Name]; !dup || a.mode == BirthID {
			res.Objects[obj.Name] = obj
		}
		// Clobber any stale overlapping interval (address reuse).
		st.removeLive(e.Addr)
		st.insertLive(interval{base: e.Addr, limit: e.Addr + e.Size, obj: obj})
	case trace.Free:
		st.removeLive(e.Addr)
	case trace.Load, trace.Store:
		if trace.RegionOf(e.Addr) == trace.RegionStack {
			res.StackRefs++
			return
		}
		var name uint64
		if a.mode == RawAddress {
			name = st.nameForAddr(e.Addr)
		} else if obj := st.findLive(e.Addr); obj != nil {
			name = obj.Name
		} else {
			res.UnknownRefs++
			name = st.nameForAddr(e.Addr)
		}
		if st.emit != nil {
			st.emit(name, e.PC, e.Addr)
			return
		}
		res.Names = append(res.Names, name)
		res.PCs = append(res.PCs, e.PC)
		res.Addrs = append(res.Addrs, e.Addr)
	case trace.Path:
		// Path records belong to the WPP side of the analysis
		// (internal/wpp); abstraction sees no data reference in them.
	}
}
