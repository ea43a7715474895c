package dynamic

import (
	"sync"
	"sync/atomic"

	"repro/internal/ego"
	"repro/internal/graph"
)

// sweep is the initial all-vertices computation every constructor shares:
// each of `workers` goroutines (at least one) claims vertices through an
// atomic cursor and runs the per-ego kernel on them over its own
// ego.Scratch. A vertex's score — and evidence map, which the kernel emits
// whole — is written by exactly one worker, so there is nothing to lock, and
// the result is the same bits at any worker count.
func sweep(g *graph.Graph, workers int, each func(v int32, s *ego.Scratch)) {
	n := g.NumVertices()
	var cursor atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ego.NewScratch(n)
			for v := cursor.Add(1) - 1; v < n; v = cursor.Add(1) - 1 {
				each(v, s)
			}
		}()
	}
	wg.Wait()
}
