package graph

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// Overlay is a copy-on-write read view: an immutable base CSR plus a short
// chain of delta layers, each holding the fully rebuilt sorted adjacency of
// only the vertices dirtied by one publication. Looking up a vertex walks
// the chain newest-first and falls back to the base, so every read — and
// therefore every kernel, search, and serving query — sees exactly the
// graph the newest layer describes while construction costs O(dirty), not
// O(n + m).
//
// Overlays are immutable once constructed and safe for concurrent readers;
// layering a new overlay on top never mutates the ones below. The chain is
// kept short by compaction (Materialize), which flattens everything into a
// fresh standalone CSR off the hot path.
type Overlay struct {
	base   *Graph
	parent *Overlay          // next-older layer; nil when delta sits on base
	delta  map[int32][]int32 // vertex -> rebuilt sorted adjacency at this layer
	n      int32
	m      int64
	depth  int32
	dirty  int // Σ layer sizes down the chain (upper bound on distinct dirty vertices)

	// idx is the dirty index shared by every overlay layered (transitively)
	// on the same base: one bit per base vertex, set when any layer of the
	// family rebuilt that vertex. A clean bit proves the base row is
	// current, so the overwhelming majority of reads at realistic batch
	// sizes cost one word test before falling through to the base CSR —
	// no per-layer map probes.
	idx *dirtyIndex
}

// dirtyIndex is a grow-only bitset over base vertex ids, shared across an
// overlay chain family. Writers OR bits in while publishing a new layer
// (atomically — readers of previously published overlays in the family may
// probe concurrently); readers treat a set bit as "walk the delta chain".
// Bits are never cleared, so a reader of an older overlay can see a bit
// set by a newer layer it doesn't contain — a false positive that only
// routes the read through the (correct) slow path.
type dirtyIndex struct {
	words []uint64
	limit int32 // ids ≥ limit (grown past the base) take the slow path
}

func newDirtyIndex(n int32) *dirtyIndex {
	return &dirtyIndex{words: make([]uint64, (int(n)+63)>>6), limit: n}
}

// markAll sets the bits of every vertex rebuilt by a new layer.
func (d *dirtyIndex) markAll(delta map[int32][]int32) {
	for v := range delta {
		if uint32(v) < uint32(d.limit) {
			atomic.OrUint64(&d.words[uint32(v)>>6], 1<<(uint32(v)&63))
		}
	}
}

// clean reports whether v is covered by the index and untouched by every
// layer of the family — in which case the base adjacency is authoritative.
// The unsigned compare sends negative ids down the slow path unchanged.
func (d *dirtyIndex) clean(v int32) bool {
	return uint32(v) < uint32(d.limit) &&
		atomic.LoadUint64(&d.words[uint32(v)>>6])&(1<<(uint32(v)&63)) == 0
}

// NewOverlay layers delta on a previous view, which must be either a frozen
// *Graph (the overlay then sits directly on the base) or an *Overlay (the
// chain grows by one layer). delta maps each dirtied vertex to its complete
// rebuilt neighbor list — sorted ascending, owned by the overlay from here
// on. n and m are the vertex and undirected-edge counts of the graph the
// new layer describes; n may exceed the base's when updates grew the vertex
// set (vertices in [base.n, n) absent from every delta are isolated).
func NewOverlay(prev View, n int32, m int64, delta map[int32][]int32) *Overlay {
	o := &Overlay{delta: delta, n: n, m: m}
	switch p := prev.(type) {
	case *Graph:
		o.base = p
		o.depth = 1
		o.dirty = len(delta)
		o.idx = newDirtyIndex(p.n)
	case *Overlay:
		o.base = p.base
		o.parent = p
		o.depth = p.depth + 1
		o.dirty = p.dirty + len(delta)
		o.idx = p.idx
	default:
		panic(fmt.Sprintf("graph: overlay base must be *Graph or *Overlay, got %T", prev))
	}
	o.idx.markAll(delta)
	return o
}

// Depth returns the number of delta layers between this view and its base —
// the chain length a Neighbors miss walks, and one of the two compaction
// triggers.
func (o *Overlay) Depth() int { return int(o.depth) }

// DirtyVertices returns the total size of all delta layers down the chain.
// Re-dirtied vertices count once per layer, so this is an upper bound on the
// distinct vertices that differ from the base — cheap to maintain and good
// enough for the dirty-ratio compaction trigger.
func (o *Overlay) DirtyVertices() int { return o.dirty }

// NumVertices returns the number of vertices.
func (o *Overlay) NumVertices() int32 { return o.n }

// NumEdges returns the number of undirected edges.
func (o *Overlay) NumEdges() int64 { return o.m }

// Neighbors returns the sorted neighbor list of v: the newest delta that
// rebuilt v wins, otherwise the base list. Callers must not modify the
// returned slice.
//
// Vertices untouched by every layer of the chain family — the overwhelming
// majority at realistic batch sizes — resolve through the shared dirty
// index in one word test, returning the base CSR slice without walking the
// chain or probing any delta map.
func (o *Overlay) Neighbors(v int32) []int32 {
	if o.idx.clean(v) {
		return o.base.Neighbors(v)
	}
	for l := o; l != nil; l = l.parent {
		if nbrs, ok := l.delta[v]; ok {
			return nbrs
		}
	}
	if v < o.base.n {
		return o.base.Neighbors(v)
	}
	return nil // grown past the base and never touched: isolated
}

// Degree returns the degree of v.
func (o *Overlay) Degree(v int32) int32 { return int32(len(o.Neighbors(v))) }

// Materialize flattens the overlay into a fresh standalone CSR — the
// compaction step. It reads only immutable state, so it runs without any
// lock, concurrently with readers and with writers publishing further
// layers on top; up to `workers` goroutines share the row copy.
func (o *Overlay) Materialize(workers int) *Graph {
	return exportCSR(o.n, o.m, o.Neighbors, workers)
}

// Rebase re-anchors the layers published after `at` onto g, which must hold
// exactly the graph `at` described (its Materialize result). It walks the
// chain newest-first collecting layers until it reaches `at` — the compacted
// overlay itself or the old base — and rebuilds those layers, sharing their
// delta maps, on the new base. `at` must be in this chain: the compactor is
// the only code that replaces a chain, one at a time, so a chain published
// after its flatten began still holds the view it flattened.
func (o *Overlay) Rebase(at View, g *Graph) View {
	var layers []*Overlay
	for cur := o; View(cur) != at; cur = cur.parent {
		layers = append(layers, cur)
		if cur.parent == nil {
			if View(cur.base) != at {
				panic("graph: Rebase target is not in the overlay chain")
			}
			break
		}
	}
	var nv View = g
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		nv = NewOverlay(nv, l.n, l.m, l.delta)
	}
	return nv
}

// exportCSR builds an immutable CSR graph of n vertices and m undirected
// edges from per-vertex sorted neighbor lists, copying units of 1,024 rows
// on up to `workers` workers. It performs no sorting or validation — the
// rows must already satisfy the CSR contract — and is shared by
// DynGraph.Freeze and Overlay.Materialize.
func exportCSR(n int32, m int64, row func(int32) []int32, workers int) *Graph {
	offsets := make([]int64, n+1)
	for v := int32(0); v < n; v++ {
		offsets[v+1] = offsets[v] + int64(len(row(v)))
	}
	adj := make([]int32, offsets[n])
	const unit = 1024
	par.For(workers, (int(n)+unit-1)/unit, func(_, i int) {
		for v := int32(i * unit); v < int32(min((i+1)*unit, int(n))); v++ {
			copy(adj[offsets[v]:offsets[v+1]], row(v))
		}
	})
	return &Graph{offsets: offsets, adj: adj, n: n, m: m}
}
