package approx

import "repro/internal/graph"

// EverettBorgatti computes CB(p) from the closed form of Everett &
// Borgatti ("Ego network betweenness", Social Networks 2005), the formula
// behind easygraph's ego_betweenness: build the ego network G_p — p, its
// neighbors, and every edge among them — with adjacency matrix A, let
// B = A², and sum 1/B[i][j] over unordered non-adjacent pairs with
// B[i][j] > 0. For a neighbor pair {u, v}, B[u][v] counts their common
// neighbors inside G_p, which is c_p(u,v) + 1 (the +1 is p itself), and
// pairs involving p are all adjacent — so the sum is exactly Definition
// 2's Σ 1/(c_p(u,v)+1).
//
// The implementation is a dense O(d³) matrix product sharing no code with
// the per-ego kernel, the edge pass, or the sampled estimator,
// which is what makes it an independent oracle for property tests.
func EverettBorgatti(a graph.Adjacency, p int32) float64 {
	nu := a.Neighbors(p)
	d := len(nu)
	if d < 2 {
		return 0
	}
	// Local ids: 0..d−1 are p's neighbors in list order, d is p itself.
	n := d + 1
	idx := make(map[int32]int, d)
	for i, v := range nu {
		idx[v] = i
	}
	adj := make([]bool, n*n)
	for i, v := range nu {
		adj[i*n+d] = true
		adj[d*n+i] = true
		for _, w := range a.Neighbors(v) {
			if j, ok := idx[w]; ok {
				adj[i*n+j] = true
			}
		}
	}
	total := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adj[i*n+j] {
				continue
			}
			paths := 0
			for l := 0; l < n; l++ {
				if adj[i*n+l] && adj[l*n+j] {
					paths++
				}
			}
			if paths > 0 {
				total += 1 / float64(paths)
			}
		}
	}
	return total
}
