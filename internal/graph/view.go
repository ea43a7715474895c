package graph

import "sort"

// View is the read-only graph interface the whole query stack runs on: the
// ego-betweenness kernels, the top-k searches, the statistics, and the
// serving layer's snapshots all accept a View. Two production
// implementations exist — the frozen CSR *Graph (a compacted base) and
// *Overlay (a base plus copy-on-write deltas for the vertices dirtied since
// that base) — and the mutable *DynGraph satisfies it too, which the tests
// use to cross-check representations.
//
// Every implementation must present the same contract the CSR does: sorted
// ascending neighbor lists, symmetric loop-free adjacency, and Neighbors
// slices that the caller must not modify.
type View interface {
	Adjacency
	MaxDegree() int32
}

var (
	_ View = (*Graph)(nil)
	_ View = (*DynGraph)(nil)
	_ View = (*Overlay)(nil)
)

// OrderOf returns all vertices of a view sorted by the total order ≺
// (non-increasing degree, ties broken by descending identifier). Degrees
// are materialized once before sorting: on an overlay a Degree call walks
// the delta chain, and paying that per comparison would put an O(depth)
// factor on the sort's n·log n.
func OrderOf(a Adjacency) []int32 {
	n := a.NumVertices()
	deg := make([]int32, n)
	order := make([]int32, n)
	for v := int32(0); v < n; v++ {
		deg[v] = a.Degree(v)
		order[v] = v
	}
	sort.Slice(order, func(i, j int) bool {
		u, v := order[i], order[j]
		if deg[u] != deg[v] {
			return deg[u] > deg[v]
		}
		return u > v
	})
	return order
}

// RankOf returns rank[v] = position of v in OrderOf(a). Lower rank means
// earlier in ≺ (higher degree); it is the orientation key for G+.
func RankOf(a Adjacency) []int32 {
	order := OrderOf(a)
	rank := make([]int32, len(order))
	for i, v := range order {
		rank[v] = int32(i)
	}
	return rank
}

// EachEdgeIn calls fn exactly once for every undirected edge of a view,
// with u < v by identifier. Iteration stops early if fn returns false.
func EachEdgeIn(a Adjacency, fn func(u, v int32) bool) {
	n := a.NumVertices()
	for u := int32(0); u < n; u++ {
		for _, v := range a.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}
