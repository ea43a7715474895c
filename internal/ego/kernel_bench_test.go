package ego

import (
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
// the lazy maintainer on the egos that dominate its cost: whole, and each
// half alone. build is EgoCSR only; count is ScoreCSR, the counting pass and
// fold, over copies of the hubs' CSRs made once before the timer starts.
func BenchmarkEgoBetweennessHub(b *testing.B) {
	for _, sh := range benchShapes {
		g := sh.make()
		hubs := graph.OrderOf(g)[:100]
		s := NewScratch(g.NumVertices())
		type csr struct {
			off []int
			adj []int32
		}
		csrs := make([]csr, len(hubs))
		for i, v := range hubs {
			_, off, adj := s.EgoCSR(g, v)
			csrs[i] = csr{slices.Clone(off), slices.Clone(adj)}
		}
		b.Run(sh.name+"/whole", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, v := range hubs {
					benchSink += EgoBetweenness(g, v, s)
				}
			}
		})
		b.Run(sh.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, v := range hubs {
					_, off, _ := s.EgoCSR(g, v)
					benchSink += float64(off[len(off)-1])
				}
			}
		})
		b.Run(sh.name+"/count", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range csrs {
					benchSink += s.ScoreCSR(c.off, c.adj)
				}
			}
		})
	}
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
