package graph

import (
	"fmt"
	"sort"
)

// FromEdges builds an immutable Graph over n vertices from an undirected edge
// list. Self-loops are dropped and duplicate edges (in either direction) are
// collapsed. Endpoints must lie in [0, n). Pass n < 0 to infer n as
// max(endpoint)+1.
func FromEdges(n int32, edges [][2]int32) (*Graph, error) {
	if n < 0 {
		n = 0
		for _, e := range edges {
			if e[0] >= n {
				n = e[0] + 1
			}
			if e[1] >= n {
				n = e[1] + 1
			}
		}
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e[0], e[1], n)
		}
	}

	deg := make([]int64, n+1)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	offsets := make([]int64, n+1)
	for v := int32(1); v <= n; v++ {
		offsets[v] = offsets[v-1] + deg[v]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}

	// Sort each neighbor list and deduplicate in place, compacting the
	// adjacency array afterwards.
	write := int64(0)
	newOffsets := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		nbrs := adj[lo:hi]
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		newOffsets[v] = write
		var prev int32 = -1
		for _, w := range nbrs {
			if w == prev {
				continue
			}
			adj[write] = w
			write++
			prev = w
		}
	}
	newOffsets[n] = write
	adj = adj[:write:write]

	return &Graph{offsets: newOffsets, adj: adj, n: n, m: write / 2}, nil
}

// MustFromEdges is FromEdges that panics on error; intended for tests and
// hard-coded example graphs.
func MustFromEdges(n int32, edges [][2]int32) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// FromAdjacency builds a Graph from per-vertex neighbor lists. The lists do
// not have to be sorted or deduplicated; symmetry is enforced by treating
// every (v, w) entry as an undirected edge.
func FromAdjacency(lists [][]int32) (*Graph, error) {
	var edges [][2]int32
	for v, nbrs := range lists {
		for _, w := range nbrs {
			if int32(v) < w || (w < int32(v) && !contains32(lists[w], int32(v))) {
				edges = append(edges, [2]int32{int32(v), w})
			}
		}
	}
	return FromEdges(int32(len(lists)), edges)
}

func contains32(s []int32, x int32) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
