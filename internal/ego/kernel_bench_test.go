package ego

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The two shapes of benchmark/spec.go at full scale: clique-heavy collab and
// hub-heavy powerlaw.
var benchShapes = []struct {
	name string
	make func() *graph.Graph
}{
	{"collab", func() *graph.Graph { return gen.Affiliation(16000, 8000, 5.5, 1, 1) }},
	{"powerlaw", func() *graph.Graph { return gen.ChungLu(20000, 2.2, 5.3, 800, 1) }},
}

var benchSink float64

// BenchmarkEgoBetweennessHub times the per-vertex kernel over the 100
// highest-degree vertices with a warm Scratch — the recompute primitive of
// the lazy maintainer on the egos that dominate its cost. Every hub has
// d > 64 on both shapes, so its counting pass is the walk.
func BenchmarkEgoBetweennessHub(b *testing.B) {
	for _, sh := range benchShapes {
		g := sh.make()
		benchEgos(b, sh.name, g, graph.OrderOf(g)[:100])
	}
}

// BenchmarkEgoBetweennessSmall is BenchmarkEgoBetweennessHub over every ego
// with 2 ≤ d ≤ 64, whose counting pass runs on one word per row: on collab
// they run 95 % of ComputeAll's counting steps, on powerlaw 3 %.
func BenchmarkEgoBetweennessSmall(b *testing.B) {
	for _, sh := range benchShapes {
		g := sh.make()
		var small []int32
		for v := int32(0); v < g.NumVertices(); v++ {
			if d := g.Degree(v); d >= 2 && d <= 64 {
				small = append(small, v)
			}
		}
		benchEgos(b, sh.name, g, small)
	}
}

// benchEgos times the kernel over the egos of vs with a warm Scratch:
// whole, and each half alone. build is EgoCSR only; count is ScoreCSR, the
// counting pass and fold, over copies of the egos' CSRs made once before
// the timer starts.
func benchEgos(b *testing.B, name string, g *graph.Graph, vs []int32) {
	s := NewScratch(g.NumVertices())
	type csr struct {
		off []int
		adj []int32
	}
	csrs := make([]csr, len(vs))
	for i, v := range vs {
		_, off, adj := s.EgoCSR(g, v)
		csrs[i] = csr{slices.Clone(off), slices.Clone(adj)}
	}
	b.Run(name+"/whole", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range vs {
				benchSink += EgoBetweenness(g, v, s)
			}
		}
	})
	b.Run(name+"/build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, v := range vs {
				_, off, _ := s.EgoCSR(g, v)
				benchSink += float64(off[len(off)-1])
			}
		}
	})
	b.Run(name+"/count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range csrs {
				cb, _ := s.ScoreCSR(c.off, c.adj)
				benchSink += cb
			}
		}
	})
}

// BenchmarkComputeAll times the all-vertices baseline.
func BenchmarkComputeAll(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			g := sh.make()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += ComputeAll(g)[0]
			}
		})
	}
}

// BenchmarkOptBSearch and BenchmarkBaseBSearch time exact top-100, the
// benchmark's topk_exact query, next to BenchmarkComputeAll — the cost the
// bounds are there to beat.
func BenchmarkOptBSearch(b *testing.B) {
	benchSearch(b, func(g *graph.Graph) []Result { r, _ := OptBSearch(g, 100, 1.05); return r })
}

func BenchmarkBaseBSearch(b *testing.B) {
	benchSearch(b, func(g *graph.Graph) []Result { r, _ := BaseBSearch(g, 100); return r })
}

func benchSearch(b *testing.B, run func(*graph.Graph) []Result) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			g := sh.make()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += run(g)[0].CB
			}
		})
	}
}

// BenchmarkSpecGate re-measures the speculation gate (DESIGN.md §3):
// OptBSearch at θ = DefaultTheta through the search seam with two helpers
// at each price gate, and inline ("serial") for reference, on the
// benchmark's graphs at k ∈ {10, 100, 1000}. Compare medians of
// interleaved runs: one -count=1 invocation per round.
func BenchmarkSpecGate(b *testing.B) {
	for _, sh := range benchShapes {
		g := sh.make()
		for _, k := range []int{10, 100, 1000} {
			for _, gate := range []int64{-1, 0, 250, 1000, 4000, 16000} {
				w, name := 2, fmt.Sprint("gate=", gate)
				if gate < 0 {
					w, name = 1, "serial"
				}
				b.Run(fmt.Sprintf("%s/k=%d/%s", sh.name, k, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, _ := searchAll(g, k, DefaultTheta, nil, true, w, gate)
						benchSink += res[0].CB
					}
				})
			}
		}
	}
}
