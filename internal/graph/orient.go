package graph

// Oriented is the directed graph G+ obtained by orienting every undirected
// edge (u, v) from u to v when u ≺ v (Section II). Every undirected edge has
// exactly one owner — its ≺-smaller endpoint — so triangle counting
// (Stats) sees each triangle once. Out-neighbor lists are sorted by vertex
// identifier.
type Oriented struct {
	offsets []int64
	out     []int32
	n       int32
}

// Orient builds G+ from any view of g.
func Orient(g View) *Oriented {
	rank := RankOf(g)
	n := g.NumVertices()
	offsets := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		cnt := int64(0)
		for _, w := range g.Neighbors(v) {
			if rank[v] < rank[w] {
				cnt++
			}
		}
		offsets[v+1] = offsets[v] + cnt
	}
	out := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for v := int32(0); v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if rank[v] < rank[w] {
				out[cursor[v]] = w
				cursor[v]++
			}
		}
	}
	return &Oriented{offsets: offsets, out: out, n: n}
}

// OutNeighbors returns N+(v): the neighbors of v that come after v in ≺.
// The slice is sorted by identifier and must not be modified.
func (o *Oriented) OutNeighbors(v int32) []int32 {
	return o.out[o.offsets[v]:o.offsets[v+1]]
}

// OutDegree returns |N+(v)|.
func (o *Oriented) OutDegree(v int32) int32 {
	return int32(o.offsets[v+1] - o.offsets[v])
}

// MaxOutDegree returns the largest out-degree, a proxy for the arboricity
// bound used in the complexity analysis (for any graph the degeneracy-style
// orientation keeps out-degrees near O(α)).
func (o *Oriented) MaxOutDegree() int32 {
	var mx int32
	for v := int32(0); v < o.n; v++ {
		if d := o.OutDegree(v); d > mx {
			mx = d
		}
	}
	return mx
}
