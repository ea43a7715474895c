package graph

import (
	"fmt"

	"repro/internal/nbr"
)

// Stats summarizes a graph the way Table I of the paper does, plus the
// triangle count and degeneracy-style orientation width that drive the
// O(α·m·d_max) complexity discussion.
type Stats struct {
	N            int32   // vertices
	M            int64   // undirected edges
	DMax         int32   // maximum degree
	AvgDeg       float64 // 2m/n
	Triangles    int64   // number of triangles
	MaxOutDegree int32   // max out-degree of G+ (arboricity proxy)
}

// ComputeStats gathers Stats for g. Triangle counting uses the standard
// oriented enumeration: each triangle is found exactly once at its
// ≺-smallest... highest-ranked vertex, in O(Σ_v d+(v)²) ⊆ O(α·m) time.
func ComputeStats(g View) Stats {
	st := Stats{N: g.NumVertices(), M: g.NumEdges(), DMax: g.MaxDegree()}
	if st.N > 0 {
		st.AvgDeg = 2 * float64(st.M) / float64(st.N)
	}
	o := Orient(g)
	st.MaxOutDegree = o.MaxOutDegree()
	st.Triangles = CountTriangles(g, o)
	return st
}

// CountTriangles counts triangles using the orientation o of g: for every
// oriented edge (u, v), the common out-neighbors of u and v each close one
// triangle, and every triangle is counted exactly once this way.
func CountTriangles(g View, o *Oriented) int64 {
	var total int64
	for u := int32(0); u < g.NumVertices(); u++ {
		outU := o.OutNeighbors(u)
		for _, v := range outU {
			total += int64(nbr.IntersectCount(outU, o.OutNeighbors(v)))
		}
	}
	return total
}

// String renders Stats as a Table I style row.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d dmax=%d avg=%.2f triangles=%d maxout=%d",
		s.N, s.M, s.DMax, s.AvgDeg, s.Triangles, s.MaxOutDegree)
}
