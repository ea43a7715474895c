package graph

import (
	"fmt"
	"math"
)

// Graph is an immutable undirected graph in CSR form. The neighbor list of
// every vertex is sorted ascending, which the intersection and adjacency
// kernels rely on.
type Graph struct {
	offsets []int64 // len n+1; adj[offsets[v]:offsets[v+1]] are v's neighbors
	adj     []int32 // concatenated sorted neighbor lists; len 2m
	n       int32
	m       int64
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int32 { return g.n }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int32 {
	return int32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v as a shared slice view.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// containsSorted reports whether x occurs in the ascending slice s.
func containsSorted(s []int32, x int32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

// EachEdge calls fn exactly once for every undirected edge, with u < v by
// identifier. Iteration stops early if fn returns false.
func (g *Graph) EachEdge(fn func(u, v int32) bool) { EachEdgeIn(g, fn) }

// Edges materializes the undirected edge set with u < v per pair.
func (g *Graph) Edges() [][2]int32 {
	edges := make([][2]int32, 0, g.m)
	g.EachEdge(func(u, v int32) bool {
		edges = append(edges, [2]int32{u, v})
		return true
	})
	return edges
}

// Validate checks the structural invariants of the CSR representation:
// sorted, deduplicated, loop-free, symmetric adjacency. It is used by tests
// and by loaders of untrusted input.
func (g *Graph) Validate() error {
	if int32(len(g.offsets))-1 != g.n {
		return fmt.Errorf("graph: offsets length %d does not match n=%d", len(g.offsets), g.n)
	}
	var total int64
	// Symmetry by merge instead of per-edge binary search: the sweep below
	// visits directed edges (v,w) in ascending v for every fixed w, so in a
	// symmetric graph each visit consumes exactly the next unconsumed slot of
	// N(w) — cur[w] walks N(w) in lockstep. Any asymmetry desynchronizes a
	// cursor from its list and fails the equality check, either at the stray
	// entry itself or at the next edge that reaches past it; since every one
	// of the len(adj) visits consumes one distinct slot, all-checks-pass
	// implies every slot was matched. O(n+2m) total.
	cur := make([]int64, g.n)
	for v := int32(0); v < g.n; v++ {
		cur[v] = g.offsets[v]
	}
	for v := int32(0); v < g.n; v++ {
		nbrs := g.Neighbors(v)
		total += int64(len(nbrs))
		for i, w := range nbrs {
			if w < 0 || w >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && nbrs[i-1] >= w {
				return fmt.Errorf("graph: neighbors of %d not strictly ascending at position %d", v, i)
			}
			if c := cur[w]; c >= g.offsets[w+1] || g.adj[c] != v {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
			cur[w]++
		}
	}
	if total != 2*g.m {
		return fmt.Errorf("graph: adjacency entries %d != 2m=%d", total, 2*g.m)
	}
	return nil
}

// CSR exposes the raw CSR arrays: offsets (len n+1) and the concatenated
// sorted adjacency (len 2m). The slices are shared with the graph and must
// not be modified. It is the export hook for binary snapshot codecs.
func (g *Graph) CSR() (offsets []int64, adj []int32) {
	return g.offsets, g.adj
}

// FromCSR reconstructs a Graph from raw CSR arrays as produced by CSR(),
// taking ownership of both slices. Every structural invariant is validated
// before the graph is returned, so it is safe on untrusted (decoded) input:
// offsets must start at 0, be non-decreasing, and end at len(adj); adjacency
// lists must be strictly ascending, loop-free, in-range, and symmetric.
func FromCSR(offsets []int64, adj []int32) (*Graph, error) {
	if len(offsets) < 1 {
		return nil, fmt.Errorf("graph: CSR offsets empty (want length n+1 ≥ 1)")
	}
	if int64(len(offsets)-1) > int64(math.MaxInt32) {
		return nil, fmt.Errorf("graph: CSR names %d vertices, beyond int32", len(offsets)-1)
	}
	n := int32(len(offsets) - 1)
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets must start at 0, got %d", offsets[0])
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: CSR offsets end at %d, adjacency has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: CSR adjacency length %d is odd (want 2m)", len(adj))
	}
	g := &Graph{offsets: offsets, adj: adj, n: n, m: int64(len(adj)) / 2}
	for v := int32(0); v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at vertex %d", v)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	offsets := make([]int64, len(g.offsets))
	copy(offsets, g.offsets)
	adj := make([]int32, len(g.adj))
	copy(adj, g.adj)
	return &Graph{offsets: offsets, adj: adj, n: g.n, m: g.m}
}
