package server

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The lazy-mode benchmarks run ModeLazy on the benchmark's two graph shapes
// under a degree-proportional edge stream (lazyStream), the evidence the
// end-to-end benchmark — which serves ModeLocal only — cannot give:
//
//	go test -run '^$' -bench 'Lazy' -benchtime 200x ./internal/server
//
// Each benchmark first runs lazyWarmBatches batches, then one batch (or
// read) per iteration, so a fixed -benchtime Nx replays the same stream.

// lazyShapes are the benchmark's graphs (benchmark/spec.go, seed 1).
var lazyShapes = []struct {
	name string
	g    func() *graph.Graph
}{
	{"collab", func() *graph.Graph { return gen.Affiliation(16000, 8000, 5.5, 1, 1) }},
	{"powerlaw", func() *graph.Graph { return gen.ChungLu(20000, 2.2, 5.3, 800, 1) }},
}

// lazyWarmBatches is the stream prefix applied before timing starts.
const lazyWarmBatches = 50

// lazyStream is a seeded stream shaped like the benchmark's writes:
// 16-edge batches, 60 % inserting non-edges with half the inserts taking
// one endpoint degree-proportionally (an endpoint of an edge drawn
// uniformly), 40 % deleting the stream's own inserts.
type lazyStream struct {
	rng  *rand.Rand
	n    int32
	ends []int32 // both endpoints of every edge ever live
	live map[[2]int32]bool
	own  [][2]int32
}

func newLazyStream(g *graph.Graph) *lazyStream {
	s := &lazyStream{rng: rand.New(rand.NewPCG(1, 16)), n: g.NumVertices(), live: map[[2]int32]bool{}}
	g.EachEdge(func(u, v int32) bool {
		s.ends = append(s.ends, u, v)
		s.live[[2]int32{u, v}] = true
		return true
	})
	return s
}

// next returns the next batch and whether it inserts.
func (s *lazyStream) next() ([][2]int32, bool) {
	const size = 16
	var out [][2]int32
	if s.rng.Float64() < 0.4 && len(s.own) >= size {
		for range size {
			i := s.rng.IntN(len(s.own))
			e := s.own[i]
			s.own[i] = s.own[len(s.own)-1]
			s.own = s.own[:len(s.own)-1]
			delete(s.live, e)
			out = append(out, e)
		}
		return out, false
	}
	for len(out) < size {
		u, v := s.rng.Int32N(s.n), s.rng.Int32N(s.n)
		if s.rng.IntN(2) == 0 {
			u = s.ends[s.rng.IntN(len(s.ends))]
		}
		e := [2]int32{min(u, v), max(u, v)}
		if u == v || s.live[e] {
			continue
		}
		s.live[e] = true
		s.ends = append(s.ends, u, v)
		s.own = append(s.own, e)
		out = append(out, e)
	}
	return out, true
}

// lazyGraph serves g in ModeLazy and applies the stream's warm prefix.
func lazyGraph(b *testing.B, g *graph.Graph) (*Registry, *lazyStream) {
	b.Helper()
	reg := NewRegistry()
	if _, err := reg.Add("g", g, ModeLazy, 100); err != nil {
		b.Fatal(err)
	}
	s := newLazyStream(g)
	for range lazyWarmBatches {
		lazyApply(b, reg, s)
	}
	return reg, s
}

// lazyApply commits the stream's next batch, durably acknowledged.
func lazyApply(b *testing.B, reg *Registry, s *lazyStream) {
	edges, insert := s.next()
	if res, err := reg.applyEdges("g", edges, insert); err != nil || res.Applied != len(edges) {
		b.Fatalf("batch: %+v %v", res, err)
	}
}

// BenchmarkLazyDrainAck times one batch's acknowledged drain.
func BenchmarkLazyDrainAck(b *testing.B) {
	for _, sh := range lazyShapes {
		b.Run(sh.name, func(b *testing.B) {
			reg, s := lazyGraph(b, sh.g())
			defer reg.Close()
			b.ResetTimer()
			for range b.N {
				lazyApply(b, reg, s)
			}
		})
	}
}

// BenchmarkLazyTopKAfterPublish times the first top-k read of each
// snapshot a batch publishes — a cache miss by construction — and reports
// the stale candidates it recomputed.
func BenchmarkLazyTopKAfterPublish(b *testing.B) {
	for _, sh := range lazyShapes {
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", sh.name, k), func(b *testing.B) {
				reg, s := lazyGraph(b, sh.g())
				defer reg.Close()
				var kernels int64
				b.ResetTimer()
				for range b.N {
					b.StopTimer()
					lazyApply(b, reg, s)
					b.StartTimer()
					res, err := reg.TopKQ("g", TopKQuery{K: k, explain: true})
					if err != nil || res.Cached {
						b.Fatalf("read: cached=%v %v", res.Cached, err)
					}
					if res.Explain.Search != nil {
						kernels += res.Explain.Search.Computed
					}
				}
				b.ReportMetric(float64(kernels)/float64(b.N), "kernels/op")
			})
		}
	}
}

// BenchmarkLazyVertexQuery times per-vertex reads across every vertex of
// the snapshot the warm prefix left: a stale vertex recomputes its kernel
// on the lock-free snapshot with pooled scratch (egoScratch), so the steady
// state allocates nothing, and a fresh one reads its published score.
func BenchmarkLazyVertexQuery(b *testing.B) {
	for _, sh := range lazyShapes {
		b.Run(sh.name, func(b *testing.B) {
			reg, _ := lazyGraph(b, sh.g())
			defer reg.Close()
			n := int32(sh.g().NumVertices())
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if _, err := reg.EgoBetweenness("g", int32(i)%n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyFootprint reports the maintainers' MemoryFootprint after
// the warm prefix on each shape: the map-free form the server's ModeLazy
// runs, the library's LazyTopK at k = 100, and the map-holding form of
// ModeLocal. Its ns/op is the three builds and the stream.
func BenchmarkLazyFootprint(b *testing.B) {
	for _, sh := range lazyShapes {
		b.Run(sh.name, func(b *testing.B) {
			g := sh.g()
			mf, lt, local := dynamic.NewMapFreeMaintainer(g), dynamic.NewLazyTopK(g, 100), dynamic.NewMaintainer(g)
			s := newLazyStream(g)
			for range lazyWarmBatches {
				edges, insert := s.next()
				for _, e := range edges {
					op := []func(u, v int32) error{mf.DeleteEdge, lt.DeleteEdge, local.DeleteEdge}
					if insert {
						op = []func(u, v int32) error{mf.InsertEdge, lt.InsertEdge, local.InsertEdge}
					}
					for _, f := range op {
						if err := f(e[0], e[1]); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(mf.MemoryFootprint()), "mapfree-B")
			b.ReportMetric(float64(lt.MemoryFootprint()), "lazytopk-B")
			b.ReportMetric(float64(local.MemoryFootprint()), "local-B")
		})
	}
}
