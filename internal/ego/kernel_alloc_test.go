//go:build !race

package ego

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestKernelZeroAlloc pins the kernel's steady-state cost contract: once a
// Scratch has seen an ego at least as large, EgoBetweenness allocates
// nothing — neither on a Scratch sized for the graph nor on a pooled
// NewScratch(0) that had to grow on its first call, and on each view the
// read path searches: a frozen CSR, a DynGraph, and a depth-2 Overlay of
// the same graph. The file is excluded under -race because the race
// runtime instruments allocations.
func TestKernelZeroAlloc(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 3)
	hub := graph.OrderOf(g)[0]
	d := graph.DynFromGraph(g)
	rng := rand.New(rand.NewPCG(5, 7))
	churn(d, rng, 300)
	ov := d.FreezeOverlay(g)
	churn(d, rng, 300)
	ov = d.FreezeOverlay(ov)
	if ov.Depth() != 2 {
		t.Fatalf("overlay depth %d, want 2", ov.Depth())
	}
	for view, a := range map[string]graph.View{"csr": g, "dyn": d, "overlay": ov} {
		for name, s := range map[string]*Scratch{
			"sized":  NewScratch(a.NumVertices()),
			"pooled": NewScratch(0),
		} {
			EgoBetweenness(a, hub, s) // first growth
			if allocs := testing.AllocsPerRun(50, func() {
				benchSink += EgoBetweenness(a, hub, s)
			}); allocs != 0 {
				t.Errorf("%s, %s scratch: %v allocs per warm hub call, want 0", view, name, allocs)
			}
		}
	}
}

// TestSearchAllocs pins the search loop's allocation contract: a fixed
// handful of O(n) slices (heap, counters, Scratch), the result list, and the
// Scratch's doubling growth to the largest ego, which is among the first
// popped — and nothing per computed vertex, so a search that computes ten
// times as many vertices allocates the same number of times. It holds
// inline (W = 1) and with two helpers that speculate every candidate: each
// search carves the helpers' Scratches and the slots that hold results
// afresh, sized once from the first candidate, and nothing is shared
// between searches, so the count does not depend on a GC clearing a pool.
func TestSearchAllocs(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 3)
	for _, w := range []int{1, 2} {
		for name, run := range map[string]func(k int) SearchStats{
			"opt":  func(k int) SearchStats { _, st := searchAll(g, k, 1.05, nil, true, w, 0); return st },
			"base": func(k int) SearchStats { _, st := searchAll(g, k, 1, nil, false, w, 0); return st },
		} {
			few, many := run(10).Computed, run(300).Computed
			if many < 10*few {
				t.Fatalf("%s W=%d: k=300 computes %d vertices, k=10 %d: not a tenfold spread", name, w, many, few)
			}
			small := testing.AllocsPerRun(10, func() { run(10) })
			large := testing.AllocsPerRun(10, func() { run(300) })
			if small > 64 || large > small+4 {
				t.Errorf("%s W=%d: %v allocs at k=10 (%d computed), %v at k=300 (%d computed); want ≤ 64 and no growth with computed",
					name, w, small, few, large, many)
			}
		}
	}
}

// TestSearchSeededAllocs pins the seeded search's allocation contract: it
// allocates for what H holds, so with no stale vertex it allocates O(k) —
// R, the result list, the accessors — and no per-vertex array. The bytes
// per call are the same on a 2,000- and a 20,000-vertex graph, and stay
// under 16 KB at k ≤ 100, inline and with helpers. TotalAlloc is
// process-wide, so an allocation the runtime or another goroutine makes
// inside a window is charged to the search: each graph's figure is its
// least bytes per call over several 20-call windows.
func TestSearchSeededAllocs(t *testing.T) {
	perCall := func(g *graph.Graph, k, w int) uint64 {
		cb := ComputeAll(g)
		sd := &seed{func(v int32) float64 { return cb[v] }, func(int32) bool { return false }}
		run := func() {
			if _, st, err := search(context.Background(), g, k, 1, nil, false, sd, w, 0); err != nil || st.Computed != 0 {
				t.Fatalf("k=%d W=%d: %d kernels, %v", k, w, st.Computed, err)
			}
		}
		run()
		const windows, runs = 5, 20
		least := uint64(math.MaxUint64)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				run()
			}
			runtime.ReadMemStats(&after)
			least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	small, large := gen.ChungLu(2000, 2.2, 5.3, 120, 3), gen.ChungLu(20000, 2.2, 5.3, 120, 3)
	for _, k := range []int{10, 100} {
		for _, w := range []int{1, 2} {
			bs, bl := perCall(small, k, w), perCall(large, k, w)
			if bl > bs || bl >= 16<<10 {
				t.Errorf("k=%d W=%d: %d B per seeded search on 2k vertices, %d B on 20k; want no growth and < 16 KB", k, w, bs, bl)
			}
		}
	}
}
