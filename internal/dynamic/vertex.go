package dynamic

import (
	"fmt"

	"repro/internal/graph"
)

// Vertex-level updates. Section IV of the paper treats vertex insertion and
// deletion as a series of edge insertions and deletions; these helpers
// package that series with the right ordering and error semantics, once for
// both maintainers.

// edgeMaintainer is what the vertex operations need of a maintainer: its
// graph, its edge updates, and growing its per-vertex state.
type edgeMaintainer interface {
	Graph() *graph.DynGraph
	InsertEdge(u, v int32) error
	DeleteEdge(u, v int32) error
	growTo(n int32)
}

// InsertVertex adds a new vertex connected to the given neighbors and
// returns its id. The neighbor edges are applied one at a time through
// LocalInsert, so all affected ego-betweennesses stay exact.
func (m *Maintainer) InsertVertex(neighbors []int32) (int32, error) {
	return insertVertex(m, neighbors)
}

// DeleteVertex removes every edge incident to v, leaving it isolated with
// CB(v) = 0. Vertex ids are stable, so v itself remains valid (and can be
// reconnected later).
func (m *Maintainer) DeleteVertex(v int32) error { return deleteVertex(m, v) }

// InsertVertex adds a new vertex with the given neighbors to the lazily
// maintained graph and returns its id.
func (lt *LazyTopK) InsertVertex(neighbors []int32) (int32, error) {
	return insertVertex(lt, neighbors)
}

// DeleteVertex disconnects v entirely under lazy maintenance.
func (lt *LazyTopK) DeleteVertex(v int32) error { return deleteVertex(lt, v) }

// insertVertex adds the next vertex id with the given neighbors. A failed
// edge rolls the partial series back so the maintainer stays consistent.
func insertVertex(m edgeMaintainer, neighbors []int32) (int32, error) {
	g := m.Graph()
	v := g.NumVertices()
	for _, u := range neighbors {
		if u == v {
			return -1, fmt.Errorf("dynamic: vertex cannot neighbor itself")
		}
	}
	if len(neighbors) == 0 {
		// An isolated vertex: just grow the state.
		g.EnsureVertices(v + 1)
		m.growTo(v + 1)
		return v, nil
	}
	for i, u := range neighbors {
		if err := m.InsertEdge(v, u); err != nil {
			for _, w := range neighbors[:i] {
				_ = m.DeleteEdge(v, w)
			}
			return -1, err
		}
	}
	return v, nil
}

// deleteVertex removes every edge incident to v.
func deleteVertex(m edgeMaintainer, v int32) error {
	g := m.Graph()
	if v < 0 || v >= g.NumVertices() {
		return fmt.Errorf("dynamic: vertex %d out of range", v)
	}
	nbrs := append([]int32(nil), g.Neighbors(v)...)
	for _, u := range nbrs {
		if err := m.DeleteEdge(v, u); err != nil {
			return err
		}
	}
	return nil
}
