package graph

import (
	"fmt"
	"sort"

	"repro/internal/nbr"
)

// DynGraph is a mutable undirected graph with per-vertex sorted adjacency
// slices. Insertions and deletions cost O(d) for the two endpoint lists; all
// read operations match the CSR Graph API, so the ego-betweenness kernels
// that only need reads work on either representation through the Adjacency
// interface.
type DynGraph struct {
	adj [][]int32
	m   int64

	// Per-drain dirty tracking: the vertices whose adjacency changed since
	// the last TakeDirty, deduplicated. InsertEdge/DeleteEdge mark their two
	// endpoints, which is exactly the set of rebuilt lists an overlay
	// publication needs — O(batch) state for an O(batch) publication.
	dirty    []int32
	dirtySet []bool
}

// Adjacency is the minimal read-only view shared by Graph and DynGraph.
// Algorithm kernels that must run on both representations (for example, the
// exact per-vertex recomputation inside the lazy top-k maintainer) accept
// this interface.
type Adjacency interface {
	NumVertices() int32
	NumEdges() int64
	Degree(v int32) int32
	Neighbors(v int32) []int32
	HasEdge(u, v int32) bool
}

var (
	_ Adjacency = (*Graph)(nil)
	_ Adjacency = (*DynGraph)(nil)
)

// NewDynGraph returns an empty dynamic graph with n isolated vertices.
func NewDynGraph(n int32) *DynGraph {
	return &DynGraph{adj: make([][]int32, n)}
}

// DynFromGraph copies a CSR graph into a mutable representation.
func DynFromGraph(g *Graph) *DynGraph {
	// One backing array for all rows instead of a per-vertex allocation:
	// three-index subslices cap each row at its own region, so an append
	// that grows a row reallocates just that row while deletions keep
	// shrinking in place.
	offsets, flat := g.CSR()
	backing := append([]int32(nil), flat...)
	adj := make([][]int32, g.NumVertices())
	for v := range adj {
		adj[v] = backing[offsets[v]:offsets[v+1]:offsets[v+1]]
	}
	return &DynGraph{adj: adj, m: g.NumEdges()}
}

// Freeze exports the dynamic graph as an immutable CSR Graph using up to
// `workers` goroutines for the adjacency copy (workers ≤ 1 stays on the
// calling goroutine). Unlike the general FromAdjacency path it performs no
// sorting or deduplication: DynGraph's per-vertex lists are strictly
// ascending and symmetric by construction, so the export is a prefix sum
// over degrees plus a row-sharded memcpy — O(n + m) work that parallelizes
// to memory bandwidth. This is the snapshot-publication path of the serving
// layer, where export latency sits inside the per-graph write lock.
func (d *DynGraph) Freeze(workers int) *Graph {
	n := int32(len(d.adj))
	return exportCSR(n, d.m, func(v int32) []int32 { return d.adj[v] }, workers)
}

// FreezeOverlay publishes the current state as a copy-on-write overlay on
// prev — the previously published view, either a frozen *Graph or an
// earlier *Overlay. It drains the dirty set and copies only those vertices'
// adjacency lists (the copies detach the overlay from future in-place
// mutations of this DynGraph), so the cost is O(Σ d(v) over dirtied v) —
// proportional to the drained batch, independent of the graph size. This is
// the O(batch) snapshot-publication path of the serving layer.
func (d *DynGraph) FreezeOverlay(prev View) *Overlay {
	dirty := d.TakeDirty()
	delta := make(map[int32][]int32, len(dirty))
	for _, v := range dirty {
		delta[v] = append([]int32(nil), d.adj[v]...)
	}
	return NewOverlay(prev, int32(len(d.adj)), d.m, delta)
}

// markDirty records that v's adjacency changed since the last TakeDirty.
func (d *DynGraph) markDirty(v int32) {
	for int32(len(d.dirtySet)) <= v {
		d.dirtySet = append(d.dirtySet, false)
	}
	if !d.dirtySet[v] {
		d.dirtySet[v] = true
		d.dirty = append(d.dirty, v)
	}
}

// TakeDirty returns the vertices whose adjacency changed since the last
// call (in first-dirtied order, deduplicated) and resets the tracking. The
// caller owns the returned slice.
func (d *DynGraph) TakeDirty() []int32 {
	out := d.dirty
	for _, v := range out {
		d.dirtySet[v] = false
	}
	d.dirty = nil
	return out
}

// DirtyCount returns how many vertices are currently marked dirty.
func (d *DynGraph) DirtyCount() int { return len(d.dirty) }

// NumVertices returns the current number of vertices.
func (d *DynGraph) NumVertices() int32 { return int32(len(d.adj)) }

// NumEdges returns the current number of undirected edges.
func (d *DynGraph) NumEdges() int64 { return d.m }

// Degree returns the degree of v.
func (d *DynGraph) Degree(v int32) int32 { return int32(len(d.adj[v])) }

// Neighbors returns the sorted neighbor list of v. The slice aliases
// internal state: it is valid until the next mutation of v and must not be
// modified by the caller.
func (d *DynGraph) Neighbors(v int32) []int32 { return d.adj[v] }

// HasEdge reports whether the undirected edge (u, v) is present.
func (d *DynGraph) HasEdge(u, v int32) bool {
	if u == v || u < 0 || v < 0 || int(u) >= len(d.adj) || int(v) >= len(d.adj) {
		return false
	}
	if len(d.adj[u]) > len(d.adj[v]) {
		u, v = v, u
	}
	return containsSorted(d.adj[u], v)
}

// EnsureVertices grows the vertex set to at least n vertices.
func (d *DynGraph) EnsureVertices(n int32) {
	for int32(len(d.adj)) < n {
		d.adj = append(d.adj, nil)
	}
}

// InsertEdge adds the undirected edge (u, v), growing the vertex set if
// needed. It returns an error for self-loops and for edges already present.
func (d *DynGraph) InsertEdge(u, v int32) error {
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d)", u, v)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("graph: negative vertex in edge (%d,%d)", u, v)
	}
	mx := u
	if v > mx {
		mx = v
	}
	d.EnsureVertices(mx + 1)
	if containsSorted(d.adj[u], v) {
		return fmt.Errorf("graph: edge (%d,%d) already present", u, v)
	}
	d.adj[u] = insertSorted(d.adj[u], v)
	d.adj[v] = insertSorted(d.adj[v], u)
	d.m++
	d.markDirty(u)
	d.markDirty(v)
	return nil
}

// DeleteEdge removes the undirected edge (u, v). It returns an error when
// the edge is absent.
func (d *DynGraph) DeleteEdge(u, v int32) error {
	if u == v || u < 0 || v < 0 || int(u) >= len(d.adj) || int(v) >= len(d.adj) {
		return fmt.Errorf("graph: edge (%d,%d) not present", u, v)
	}
	au, okU := removeSorted(d.adj[u], v)
	if !okU {
		return fmt.Errorf("graph: edge (%d,%d) not present", u, v)
	}
	av, okV := removeSorted(d.adj[v], u)
	if !okV {
		return fmt.Errorf("graph: edge (%d,%d) asymmetric adjacency", u, v)
	}
	d.adj[u], d.adj[v] = au, av
	d.m--
	d.markDirty(u)
	d.markDirty(v)
	return nil
}

// CommonNeighbors appends N(u) ∩ N(v) to dst and returns it.
func (d *DynGraph) CommonNeighbors(dst []int32, u, v int32) []int32 {
	return nbr.IntersectInto(dst, d.adj[u], d.adj[v])
}

// MaxDegree returns the current maximum degree.
func (d *DynGraph) MaxDegree() int32 {
	var mx int32
	for _, nbrs := range d.adj {
		if int32(len(nbrs)) > mx {
			mx = int32(len(nbrs))
		}
	}
	return mx
}

// Clone returns a deep copy of the adjacency state. Dirty tracking starts
// fresh in the clone: it belongs to the publication pipeline of the original.
func (d *DynGraph) Clone() *DynGraph {
	adj := make([][]int32, len(d.adj))
	for v, nbrs := range d.adj {
		adj[v] = append(make([]int32, 0, len(nbrs)), nbrs...)
	}
	return &DynGraph{adj: adj, m: d.m}
}

func insertSorted(s []int32, x int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

func removeSorted(s []int32, x int32) ([]int32, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i >= len(s) || s[i] != x {
		return s, false
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1], true
}
