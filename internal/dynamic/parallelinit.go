package dynamic

import (
	"sync"
	"sync/atomic"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// NewMaintainerParallel builds the exact maintainer with the initial
// all-vertices computation routed through the EdgePEBW parallel engine at
// the given worker budget (workers ≤ 1 falls back to the sequential
// construction). The evidence maps the engine produces are taken over
// directly, and every score is folded from its map's integer histogram, so
// the maintainer starts bit-identical to the sequential path.
func NewMaintainerParallel(g *graph.Graph, workers int) *Maintainer {
	if workers <= 1 {
		return NewMaintainer(g)
	}
	cb, maps, _ := parallel.ComputeAllWithMaps(g, workers, parallel.EdgePEBW)
	return NewMaintainerFromScores(g, cb, maps)
}

// NewLazyTopKParallel builds the lazy top-k maintainer with the initial
// score vector computed by `workers` goroutines (workers ≤ 1 falls back to
// the sequential construction). The lazy maintainer keeps no evidence maps,
// so the workers run the per-vertex kernel — one ego.Scratch each, vertices
// claimed through an atomic cursor — and the scores are bit-identical to
// NewLazyTopK's.
func NewLazyTopKParallel(g *graph.Graph, k, workers int) *LazyTopK {
	if workers <= 1 {
		return NewLazyTopK(g, k)
	}
	n := g.NumVertices()
	cb := make([]float64, n)
	var cursor atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ego.NewScratch(n)
			for v := cursor.Add(1) - 1; v < n; v = cursor.Add(1) - 1 {
				cb[v] = ego.EgoBetweenness(g, v, s)
			}
		}()
	}
	wg.Wait()
	return NewLazyTopKFromScores(g, k, cb)
}
