package abstract

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{BirthID: "birth-id", SiteOnly: "site-only", RawAddress: "raw-address", Mode(7): "mode(7)"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
}

func TestBirthIDNamesDistinguishReusedAddresses(t *testing.T) {
	b := trace.NewBuffer(0)
	addr := trace.HeapBase
	b.Alloc(100, addr, 16)
	b.Load(1, addr)
	b.Free(addr)
	b.Alloc(100, addr, 16) // same site, same address, new life
	b.Load(1, addr)
	res := New(BirthID).Abstract(b)
	if len(res.Names) != 2 {
		t.Fatalf("names = %d, want 2", len(res.Names))
	}
	if res.Names[0] == res.Names[1] {
		t.Error("birth-id naming must distinguish reused heap addresses")
	}
	if o := res.Objects[res.Names[1]]; o.Birth != 2 || o.Site != 100 {
		t.Errorf("second object = %+v", o)
	}
}

func TestSiteOnlyMergesSameSite(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(100, trace.HeapBase, 16)
	b.Alloc(100, trace.HeapBase+16, 16)
	b.Load(1, trace.HeapBase)
	b.Load(1, trace.HeapBase+16)
	res := New(SiteOnly).Abstract(b)
	if res.Names[0] != res.Names[1] {
		t.Error("site-only naming must merge allocations from one site")
	}
}

func TestRawAddressDistinguishesOffsets(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(100, trace.HeapBase, 16)
	b.Load(1, trace.HeapBase)
	b.Load(1, trace.HeapBase+8)
	res := New(RawAddress).Abstract(b)
	if res.Names[0] == res.Names[1] {
		t.Error("raw naming must distinguish intra-object offsets")
	}
	// In BirthID mode the same two references share a name.
	res2 := New(BirthID).Abstract(b)
	if res2.Names[0] != res2.Names[1] {
		t.Error("birth-id naming must merge intra-object offsets")
	}
}

func TestSiteContextSplitsByCaller(t *testing.T) {
	// One allocation site called from two contexts: SiteOnly merges,
	// SiteContext (depth >= 2) splits.
	build := func() *trace.Buffer {
		b := trace.NewBuffer(0)
		b.Call(0xA)
		b.Alloc(100, trace.HeapBase, 16)
		b.Return()
		b.Call(0xB)
		b.Alloc(100, trace.HeapBase+16, 16)
		b.Return()
		b.Load(1, trace.HeapBase)
		b.Load(1, trace.HeapBase+16)
		return b
	}
	merged := New(SiteOnly).Abstract(build())
	if merged.Names[0] != merged.Names[1] {
		t.Error("site-only must merge")
	}
	split := NewContext(2).Abstract(build())
	if split.Names[0] == split.Names[1] {
		t.Error("site-context must split by caller")
	}
}

func TestSiteContextSameContextMerges(t *testing.T) {
	b := trace.NewBuffer(0)
	for i := 0; i < 2; i++ {
		b.Call(0xA)
		b.Alloc(100, trace.HeapBase+uint32(i)*16, 16)
		b.Return()
	}
	b.Load(1, trace.HeapBase)
	b.Load(1, trace.HeapBase+16)
	res := NewContext(3).Abstract(b)
	if res.Names[0] != res.Names[1] {
		t.Error("same-context allocations must share a name")
	}
}

func TestSiteContextDepthBounded(t *testing.T) {
	// Two allocations whose contexts differ only in the outermost of
	// three frames: invisible at depth 2, visible at depth 3.
	build := func() *trace.Buffer {
		b := trace.NewBuffer(0)
		for i, outer := range []uint32{0x111, 0x222} {
			b.Call(outer)
			b.Call(0xB)
			b.Alloc(100, trace.HeapBase+uint32(i)*16, 16)
			b.Return()
			b.Return()
		}
		b.Load(1, trace.HeapBase)
		b.Load(1, trace.HeapBase+16)
		return b
	}
	d2 := NewContext(2).Abstract(build())
	if d2.Names[0] != d2.Names[1] {
		t.Error("frames beyond the depth must not affect the name")
	}
	d3 := NewContext(3).Abstract(build())
	if d3.Names[0] == d3.Names[1] {
		t.Error("depth-3 naming must see the outer frame")
	}
}

func TestReturnUnderflowIgnored(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Return() // stray return must not panic
	b.Call(0xA)
	b.Alloc(100, trace.HeapBase, 16)
	b.Load(1, trace.HeapBase)
	res := NewContext(3).Abstract(b)
	if res.NumRefs() != 1 {
		t.Errorf("refs = %d", res.NumRefs())
	}
}

func TestStackReferencesExcluded(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Load(1, trace.StackBase+128)
	b.Load(1, trace.HeapBase)
	res := New(BirthID).Abstract(b)
	if res.StackRefs != 1 {
		t.Errorf("StackRefs = %d, want 1", res.StackRefs)
	}
	if len(res.Names) != 1 {
		t.Errorf("names = %d, want 1", len(res.Names))
	}
}

func TestUnknownReferencesNamedByAddress(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Load(1, trace.HeapBase+4096) // no live object
	b.Load(2, trace.HeapBase+4096)
	res := New(BirthID).Abstract(b)
	if res.UnknownRefs != 2 {
		t.Errorf("UnknownRefs = %d, want 2", res.UnknownRefs)
	}
	if res.Names[0] != res.Names[1] {
		t.Error("repeated unknown address must get a stable name")
	}
}

func TestInteriorPointerResolvesToObject(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(7, trace.HeapBase, 64)
	b.Load(1, trace.HeapBase+63)
	b.Load(1, trace.HeapBase+64) // one past the end: not this object
	res := New(BirthID).Abstract(b)
	if res.Names[0] == res.Names[1] {
		t.Error("one-past-end reference must not resolve to the object")
	}
	o := res.Objects[res.Names[0]]
	if o.Base != trace.HeapBase || o.Size != 64 {
		t.Errorf("object = %+v", o)
	}
}

func TestFreeRemovesObject(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(7, trace.HeapBase, 64)
	b.Free(trace.HeapBase)
	b.Load(1, trace.HeapBase+8)
	res := New(BirthID).Abstract(b)
	if res.UnknownRefs != 1 {
		t.Errorf("UnknownRefs = %d, want 1 (use after free)", res.UnknownRefs)
	}
}

func TestAddressReuseClobbersStaleInterval(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(7, trace.HeapBase, 64)
	// No free: allocator reuses the address anyway.
	b.Alloc(9, trace.HeapBase, 32)
	b.Load(1, trace.HeapBase+8)
	res := New(BirthID).Abstract(b)
	o := res.Objects[res.Names[0]]
	if o.Site != 9 {
		t.Errorf("reference resolved to stale object from site %d", o.Site)
	}
}

func TestGlobalsClassified(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(1, trace.GlobalBase, 128)
	b.Load(1, trace.GlobalBase+4)
	res := New(BirthID).Abstract(b)
	if o := res.Objects[res.Names[0]]; o.Heap {
		t.Error("global object classified as heap")
	}
}

func TestParallelArraysAligned(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(7, trace.HeapBase, 64)
	b.Load(11, trace.HeapBase)
	b.Store(22, trace.HeapBase+4)
	res := New(BirthID).Abstract(b)
	if res.NumRefs() != 2 {
		t.Fatalf("NumRefs = %d", res.NumRefs())
	}
	if res.PCs[0] != 11 || res.PCs[1] != 22 {
		t.Errorf("PCs = %v", res.PCs)
	}
	if res.Addrs[0] != trace.HeapBase || res.Addrs[1] != trace.HeapBase+4 {
		t.Errorf("Addrs = %v", res.Addrs)
	}
}

// TestStreamerMatchesBuffer drives a Streamer off a decoded trace stream,
// as core.AnalyzeStream does, and checks it abstracts exactly as the
// buffered pass.
func TestStreamerMatchesBuffer(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(7, trace.HeapBase, 64)
	b.Call(0xA)
	b.Alloc(8, trace.HeapBase+64, 64)
	b.Return()
	for i := 0; i < 200; i++ {
		b.Load(1, trace.HeapBase+uint32(i%2)*64)
		b.Store(2, trace.HeapBase+8)
	}
	b.Free(trace.HeapBase)
	b.Load(3, trace.HeapBase) // unknown after free

	var enc bytes.Buffer
	w := trace.NewWriter(&enc)
	if err := w.WriteAll(b); err != nil {
		t.Fatal(err)
	}
	w.Flush()

	want := New(BirthID).Abstract(b)
	st := New(BirthID).Streamer(0)
	if err := trace.NewReader(&enc).ForEach(func(e trace.Event) error {
		st.Process(e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := st.Result()
	if !reflect.DeepEqual(got.Names, want.Names) {
		t.Fatal("streamed names differ from buffered")
	}
	if got.UnknownRefs != want.UnknownRefs || got.StackRefs != want.StackRefs {
		t.Errorf("counters differ: %+v vs %+v", got, want)
	}
	if len(got.Objects) != len(want.Objects) {
		t.Errorf("objects %d vs %d", len(got.Objects), len(want.Objects))
	}
}

// Property: abstraction never loses or invents non-stack references, and
// every name it emits resolves in the object map.
func TestQuickAbstractionTotality(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := trace.NewBuffer(0)
		var bases []uint32
		next := trace.HeapBase
		var nonStack int
		for i := 0; i < int(n)+1; i++ {
			switch rng.Intn(5) {
			case 0:
				size := uint32(8 + rng.Intn(120))
				b.Alloc(uint32(rng.Intn(16)), next, size)
				bases = append(bases, next)
				next += size
			case 1:
				if len(bases) > 0 {
					b.Free(bases[rng.Intn(len(bases))])
				}
			default:
				if len(bases) > 0 && rng.Intn(10) > 0 {
					base := bases[rng.Intn(len(bases))]
					b.Load(uint32(rng.Intn(64)), base+uint32(rng.Intn(8)))
					nonStack++
				} else {
					b.Load(1, trace.StackBase+uint32(rng.Intn(1000)))
				}
			}
		}
		res := New(BirthID).Abstract(b)
		if res.NumRefs() != nonStack {
			return false
		}
		for _, name := range res.Names {
			if _, ok := res.Objects[name]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSinkStreamerMatchesAbstract(t *testing.T) {
	b := trace.NewBuffer(0)
	b.Alloc(0x10, trace.HeapBase, 64)
	b.Alloc(0x20, trace.HeapBase+64, 32)
	for i := 0; i < 200; i++ {
		b.Load(uint32(0x100+i%3), trace.HeapBase+uint32(i%96))
		b.Store(0x200, trace.GlobalBase+4)
	}
	b.Free(trace.HeapBase)
	b.Load(0x300, trace.HeapBase+8) // unknown after free
	b.Load(0x400, trace.StackBase+16)

	want := New(BirthID).Abstract(b)

	var names []uint64
	var pcs, addrs []uint32
	st := New(BirthID).SinkStreamer(func(name uint64, pc, addr uint32) {
		names = append(names, name)
		pcs = append(pcs, pc)
		addrs = append(addrs, addr)
	})
	for _, e := range b.Events() {
		st.Process(e)
	}

	if !reflect.DeepEqual(names, want.Names) {
		t.Error("sink names diverge from Abstract")
	}
	if !reflect.DeepEqual(pcs, want.PCs) || !reflect.DeepEqual(addrs, want.Addrs) {
		t.Error("sink PCs/Addrs diverge from Abstract")
	}
	if len(st.Objects()) != len(want.Objects) {
		t.Errorf("sink objects = %d, want %d", len(st.Objects()), len(want.Objects))
	}
	stack, unknown := st.Excluded()
	if stack != want.StackRefs || unknown != want.UnknownRefs {
		t.Errorf("sink excluded = (%d, %d), want (%d, %d)", stack, unknown, want.StackRefs, want.UnknownRefs)
	}
	if got := st.Result().Names; len(got) != 0 {
		t.Errorf("sink retained %d names; retention must be off", len(got))
	}
}
