//go:build !race

package ego

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestKernelZeroAlloc pins the kernel's steady-state cost contract: once a
// Scratch has seen an ego at least as large, EgoBetweenness allocates
// nothing — neither on a Scratch sized for the graph nor on a pooled
// NewScratch(0) that had to grow on its first call. The file is excluded
// under -race because the race runtime instruments allocations.
func TestKernelZeroAlloc(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 3)
	hub := graph.OrderOf(g)[0]
	for name, s := range map[string]*Scratch{
		"sized":  NewScratch(g.NumVertices()),
		"pooled": NewScratch(0),
	} {
		EgoBetweenness(g, hub, s) // first growth
		if allocs := testing.AllocsPerRun(50, func() {
			benchSink += EgoBetweenness(g, hub, s)
		}); allocs != 0 {
			t.Errorf("%s scratch: %v allocs per warm hub call, want 0", name, allocs)
		}
	}
}
