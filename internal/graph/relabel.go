package graph

import "slices"

// Relabeled couples an internal CSR whose vertex ids were permuted — by
// DegreeRelabel, in non-increasing degree order — with the two directions of
// the id translation. External ids (the ones writers submit and queries
// return) never change; only the internal layout does, so hubs occupy a
// dense low-id prefix: their neighbor lists compress into few bitset words,
// bitset registers mark and intersect over short spans, and the hottest rows
// pack into the front of the adjacency array. A library-level layout
// experiment (DESIGN.md §12): a caller runs ego.OptBSearchLabeled on G and
// reads results through Ext; the serving layer does not use it.
type Relabeled struct {
	G    *Graph
	Perm []int32 // Perm[external] = internal
	Ext  []int32 // Ext[internal] = external
}

// DegreeRelabel builds the degree-ordered relabeling of g: the vertex at
// position i of OrderOf(g) (non-increasing degree, ties by descending id)
// receives internal id i. O(n + m log d_max): the order is a counting sort,
// and each permuted row is re-sorted.
func DegreeRelabel(g *Graph) *Relabeled {
	ext := OrderOf(g) // ext[i] = external id of internal vertex i
	perm := make([]int32, g.n)
	for i, v := range ext {
		perm[v] = int32(i)
	}
	// Materialize the permuted CSR: internal vertex i takes the neighbor
	// list of external vertex ext[i], mapped through perm and re-sorted (a
	// permutation does not preserve the ascending-list invariant).
	n := g.n
	offsets := make([]int64, n+1)
	for i := int32(0); i < n; i++ {
		offsets[i+1] = offsets[i] + int64(g.Degree(ext[i]))
	}
	adj := make([]int32, offsets[n])
	for i := int32(0); i < n; i++ {
		row := adj[offsets[i]:offsets[i+1]]
		for j, w := range g.Neighbors(ext[i]) {
			row[j] = perm[w]
		}
		slices.Sort(row)
	}
	rg := &Graph{offsets: offsets, adj: adj, n: n, m: g.m}
	return &Relabeled{G: rg, Perm: perm, Ext: ext}
}
