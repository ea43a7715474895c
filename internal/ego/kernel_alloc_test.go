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

// TestSearchAllocs pins the search loop's allocation contract: a fixed
// handful of O(n) slices (heap, counters, Scratch), the result list, and the
// Scratch's doubling growth to the largest ego, which is among the first
// popped — and nothing per computed vertex, so a search that computes ten
// times as many vertices allocates the same number of times.
func TestSearchAllocs(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 3)
	for name, run := range map[string]func(k int) SearchStats{
		"opt":  func(k int) SearchStats { _, st := OptBSearch(g, k, 1.05); return st },
		"base": func(k int) SearchStats { _, st := BaseBSearch(g, k); return st },
	} {
		few, many := run(10).Computed, run(300).Computed
		if many < 10*few {
			t.Fatalf("%s: k=300 computes %d vertices, k=10 %d: not a tenfold spread", name, many, few)
		}
		small := testing.AllocsPerRun(10, func() { run(10) })
		large := testing.AllocsPerRun(10, func() { run(300) })
		if small > 64 || large > small+4 {
			t.Errorf("%s: %v allocs at k=10 (%d computed), %v at k=300 (%d computed); want ≤ 64 and no growth with computed",
				name, small, few, large, many)
		}
	}
}
