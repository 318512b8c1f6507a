// Boxsim example: reproduce §4.1's by-hand methodology on the sphere
// simulator. DRILL exposes hot data streams with high heat and poor
// cache-block packing efficiency — here, each sphere's position, velocity
// and property objects, which the simulator allocates in three separate
// phases. The example then applies the stream-ordered clustering remap
// (the automated analogue of the structure merging the paper did by hand)
// and shows the packing efficiency and miss-rate improvement.
//
//	go run ./examples/boxsim
package main

import (
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/drill"
	"repro/internal/locality"
	"repro/internal/optim"
	"repro/internal/trace"
	"repro/internal/workload/boxsim"
)

// tracer adapts a trace.Buffer to boxsim's Memory (a minimal version of
// workload.Tracer, spelled out so the example is self-contained).
type tracer struct {
	buf  *trace.Buffer
	next uint32
}

func (t *tracer) AllocHeap(site, size uint32) uint32 {
	base := t.next
	t.next += (size + 7) &^ 7
	t.buf.Alloc(site, base, size)
	return base
}
func (t *tracer) Pad(hole uint32)       { t.next += (hole + 7) &^ 7 }
func (t *tracer) Load(pc, addr uint32)  { t.buf.Load(pc, addr) }
func (t *tracer) Store(pc, addr uint32) { t.buf.Store(pc, addr) }

func main() {
	// Run 100 bouncing spheres (the paper's configuration) for a while.
	b := trace.NewBuffer(1 << 18)
	mem := &tracer{buf: b, next: trace.HeapBase}
	sim := boxsim.New(mem, 100, 42)
	for b.Len() < 150_000 {
		sim.Step()
	}
	fmt.Printf("simulated %d steps, %d collisions, %d trace events\n",
		sim.Steps(), sim.Hits(), b.Len())

	a := core.Analyze(b, core.Options{})
	rep := drill.Build(a.Streams(), a.Abstraction.Objects, 64)

	// §4.1: "We focused on hot data streams with high heat and poor
	// cache block packing efficiencies."
	cands := rep.FocusCandidates(0.7, 50)
	fmt.Printf("\n%d hot data streams; %d with poor packing and long repetition interval:\n\n",
		len(a.Streams()), len(cands))
	focused := &drill.Report{Streams: cands, BlockSize: 64, Namer: siteName}
	if err := focused.WriteSummary(os.Stdout, 8); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(cands) > 0 {
		fmt.Println("\nmember walk of the hottest candidate (note the three allocation phases):")
		focused.Namer = siteName
		if err := focused.WriteStream(os.Stdout, cands[0].ID); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Apply clustering: the remap packs each stream's members into
	// consecutive blocks (merging the split pos/vel/props layout).
	remap := optim.ClusterRemap(a.Streams(), a.Abstraction.Objects)
	before := locality.Summarize(a.Streams(), a.Abstraction.Objects, 64)
	after := locality.Summarize(a.Streams(), remap.RemapObjects(), 64)
	fmt.Printf("\nclustering %d objects: wt avg packing efficiency %.0f%% -> %.0f%%\n",
		remap.Placed(), before.WtAvgPackingEfficiency, after.WtAvgPackingEfficiency)

	p := optim.EvaluatePotential(a.Abstraction.Names, a.Abstraction.Addrs,
		a.Abstraction.Objects, a.Streams(), cache.FullyAssociative8K, 1)
	pr, cl, co := p.Normalized()
	fmt.Printf("miss rate (8K fully-assoc, 64B blocks): base %.2f%%; prefetch %.0f%%, cluster %.0f%%, both %.0f%% of base\n",
		p.Base, pr, cl, co)
}

// siteName maps boxsim's allocation sites to source-like locations.
func siteName(pc uint32) string {
	switch pc {
	case boxsim.PCAllocPos:
		return "boxsim.go: sphere position (phase 1)"
	case boxsim.PCAllocVel:
		return "boxsim.go: sphere velocity (phase 2)"
	case boxsim.PCAllocProps:
		return "boxsim.go: sphere properties (phase 3)"
	case boxsim.PCAllocGrid:
		return "boxsim.go: collision grid"
	case boxsim.PCAllocNode:
		return "boxsim.go: grid node"
	}
	return fmt.Sprintf("%#x", pc)
}
