package ego

import (
	"math"

	"repro/internal/graph"
)

// ReferenceBFS computes CB(u) by literally executing Definition 2: it
// materializes the ego network GE(u), counts shortest paths between every
// pair of u's neighbors with BFS, and sums g_uv(u)/g_uv. It shares no code
// or combinatorial shortcut with the production kernels — it does not assume
// pairwise distances are ≤ 2 — which makes it an independent oracle for the
// cross-validation tests. O(d³) per vertex; use on small graphs only.
func ReferenceBFS(a graph.View, u int32) float64 {
	nbrs := a.Neighbors(u)
	d := len(nbrs)
	// Local ids: 0..d-1 for neighbors, d for u itself.
	localOf := make(map[int32]int, d+1)
	for i, v := range nbrs {
		localOf[v] = i
	}
	localOf[u] = d
	adj := make([][]int, d+1)
	for i, v := range nbrs {
		adj[i] = append(adj[i], d) // spoke to u
		adj[d] = append(adj[d], i)
		for _, w := range a.Neighbors(v) {
			if j, ok := localOf[w]; ok && j != d {
				adj[i] = append(adj[i], j)
			}
		}
	}

	// BFS from every ego vertex, recording distances and path counts.
	nv := d + 1
	dist := make([][]int, nv)
	sigma := make([][]float64, nv)
	for s := 0; s < nv; s++ {
		dist[s] = make([]int, nv)
		sigma[s] = make([]float64, nv)
		for i := range dist[s] {
			dist[s][i] = -1
		}
		dist[s][s] = 0
		sigma[s][s] = 1
		queue := []int{s}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if dist[s][y] < 0 {
					dist[s][y] = dist[s][x] + 1
					queue = append(queue, y)
				}
				if dist[s][y] == dist[s][x]+1 {
					sigma[s][y] += sigma[s][x]
				}
			}
		}
	}

	// Sum b_st(u) over unordered neighbor pairs: the fraction of shortest
	// s-t paths on which u is an interior vertex. The sum is Neumaier-
	// compensated, so over the ~d²/2 terms of a large ego the oracle stays
	// within rounding of the exact score instead of drifting with d.
	cb, comp := 0.0, 0.0
	for s := 0; s < d; s++ {
		for t := s + 1; t < d; t++ {
			if dist[s][t] < 0 || sigma[s][t] == 0 {
				continue
			}
			if dist[s][d] >= 0 && dist[d][t] >= 0 && dist[s][d]+dist[d][t] == dist[s][t] {
				term := sigma[s][d] * sigma[d][t] / sigma[s][t]
				next := cb + term
				if math.Abs(cb) >= math.Abs(term) {
					comp += (cb - next) + term
				} else {
					comp += (term - next) + cb
				}
				cb = next
			}
		}
	}
	return cb + comp
}

// ComputeAllReference applies ReferenceBFS to every vertex. Test helper for
// whole-graph cross-validation on small inputs.
func ComputeAllReference(a graph.View) []float64 {
	n := a.NumVertices()
	out := make([]float64, n)
	for v := int32(0); v < n; v++ {
		out[v] = ReferenceBFS(a, v)
	}
	return out
}
