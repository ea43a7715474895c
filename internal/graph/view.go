package graph

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
	NumVertices() int32
	NumEdges() int64
	Degree(v int32) int32
	Neighbors(v int32) []int32
}

var (
	_ View = (*Graph)(nil)
	_ View = (*DynGraph)(nil)
	_ View = (*Overlay)(nil)
)

// OrderOf returns all vertices of a view sorted by the total order ≺
// (non-increasing degree, ties broken by descending identifier). Degrees
// are read once, into a counting sort over degree buckets: O(n + d_max),
// where a comparison sort would pay n·log n — and, on an overlay, whose
// Degree walks the delta chain, an O(depth) factor on every comparison.
func OrderOf(a View) []int32 {
	n := a.NumVertices()
	deg := make([]int32, n)
	var maxd int32
	for v := range n {
		deg[v] = a.Degree(v)
		maxd = max(maxd, deg[v])
	}
	// start[maxd−d] is where degree d's bucket begins, so buckets run in
	// descending degree; filling each from the highest id down breaks ties.
	start := make([]int32, maxd+2)
	for _, d := range deg {
		start[maxd-d+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	order := make([]int32, n)
	for v := n - 1; v >= 0; v-- {
		b := maxd - deg[v]
		order[start[b]] = v
		start[b]++
	}
	return order
}

// RankOf returns rank[v] = position of v in OrderOf(a). Lower rank means
// earlier in ≺ (higher degree); it is the orientation key for G+.
func RankOf(a View) []int32 {
	order := OrderOf(a)
	rank := make([]int32, len(order))
	for i, v := range order {
		rank[v] = int32(i)
	}
	return rank
}

// EachEdgeIn calls fn exactly once for every undirected edge of a view,
// with u < v by identifier. Iteration stops early if fn returns false.
func EachEdgeIn(a View, fn func(u, v int32) bool) {
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
