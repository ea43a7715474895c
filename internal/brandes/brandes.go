// Package brandes implements Brandes' exact betweenness-centrality algorithm
// for unweighted, undirected graphs — the paper's effectiveness baseline
// (TopBW in Section VI-B). For every source vertex a BFS counts shortest
// paths, then a reverse sweep accumulates pair dependencies; the total cost
// is O(nm) time and O(n+m) space per the original analysis.
//
// The betweenness convention follows the standard undirected definition:
// each unordered pair {s, t} contributes once, i.e. the accumulated directed
// dependencies are halved. Top-k ordering is unaffected by this constant.
package brandes

import (
	"runtime"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/topk"
)

// Betweenness returns the exact betweenness centrality of every vertex.
func Betweenness(g *graph.Graph) []float64 {
	bc := make([]float64, g.NumVertices())
	w := newWorker(g)
	for s := int32(0); s < g.NumVertices(); s++ {
		w.accumulate(s, bc)
	}
	half(bc)
	return bc
}

// BetweennessParallel fans the source loop out to t workers (t ≤ 0 selects
// GOMAXPROCS) with per-worker accumulators merged at the end — the standard
// source-parallel decomposition the paper uses for its 64-thread TopBW runs.
func BetweennessParallel(g *graph.Graph, t int) []float64 {
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	workers, partial := make([]*worker, t), make([][]float64, t)
	par.For(t, int(n), func(w, s int) {
		if workers[w] == nil {
			workers[w], partial[w] = newWorker(g), make([]float64, n)
		}
		workers[w].accumulate(int32(s), partial[w])
	})
	bc := make([]float64, n)
	for _, acc := range partial {
		for v, x := range acc {
			bc[v] += x
		}
	}
	half(bc)
	return bc
}

// TopK returns the k vertices with the highest betweenness (TopBW), sorted
// descending, computed with t parallel workers. A k beyond n selects all n.
func TopK(g *graph.Graph, k, t int) []ego.Result {
	bc := BetweennessParallel(g, t)
	r := topk.NewBounded(min(k, len(bc)))
	for v := int32(0); v < g.NumVertices(); v++ {
		r.Add(v, bc[v])
	}
	items := r.Results()
	out := make([]ego.Result, len(items))
	for i, it := range items {
		out[i] = ego.Result{V: it.V, CB: it.Score}
	}
	return out
}

func half(bc []float64) {
	for i := range bc {
		bc[i] /= 2
	}
}

// worker holds the per-source BFS state, reused across sources: every
// touched entry is reset after a source finishes, so the arrays are back in
// the pristine (-1 / 0) state for the next one.
type worker struct {
	g     *graph.Graph
	dist  []int32
	sigma []float64
	delta []float64
	queue []int32
	stack []int32
}

func newWorker(g *graph.Graph) *worker {
	n := g.NumVertices()
	w := &worker{g: g, dist: make([]int32, n), sigma: make([]float64, n), delta: make([]float64, n)}
	for v := range w.dist {
		w.dist[v] = -1
	}
	return w
}

// accumulate runs one Brandes iteration from source s, adding the directed
// dependencies into bc.
func (w *worker) accumulate(s int32, bc []float64) {
	g := w.g
	w.queue = w.queue[:0]
	w.stack = w.stack[:0]
	w.dist[s] = 0
	w.sigma[s] = 1
	w.queue = append(w.queue, s)
	for head := 0; head < len(w.queue); head++ {
		v := w.queue[head]
		w.stack = append(w.stack, v)
		for _, x := range g.Neighbors(v) {
			if w.dist[x] < 0 {
				w.dist[x] = w.dist[v] + 1
				w.queue = append(w.queue, x)
			}
			if w.dist[x] == w.dist[v]+1 {
				w.sigma[x] += w.sigma[v]
			}
		}
	}
	// Reverse sweep: dependency accumulation over the BFS DAG.
	for i := len(w.stack) - 1; i >= 0; i-- {
		v := w.stack[i]
		for _, x := range g.Neighbors(v) {
			if w.dist[x] == w.dist[v]+1 {
				w.delta[v] += w.sigma[v] / w.sigma[x] * (1 + w.delta[x])
			}
		}
		if v != s {
			bc[v] += w.delta[v]
		}
	}
	// Reset only the touched entries.
	for _, v := range w.stack {
		w.dist[v] = -1
		w.sigma[v] = 0
		w.delta[v] = 0
	}
}
