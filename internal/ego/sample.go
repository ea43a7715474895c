package ego

import (
	"repro/internal/graph"
	"repro/internal/nbr"
)

// The center API exposes the per-pair term of the ego-betweenness sum to
// the sampled estimator (internal/approx) without re-marking the center's
// neighborhood per probe: BeginCenter marks N(p) once in the scratch
// register, PairContribution then prices any neighbor pair with one
// HasEdge probe plus one fused three-way intersection count, and EndCenter
// releases the marks.

// BeginCenter marks N(p) into the scratch register and returns p's sorted
// neighbor list (aliasing the view's storage — callers must not modify
// it). Every BeginCenter must be paired with EndCenter.
func (s *Scratch) BeginCenter(a graph.Adjacency, p int32) []int32 {
	s.reg.Ensure(a.NumVertices())
	nu := a.Neighbors(p)
	s.reg.Mark(nu)
	return nu
}

// EndCenter releases the marks set by BeginCenter.
func (s *Scratch) EndCenter() { s.reg.Unmark() }

// MarkedOf appends the members of list that the current center's marks
// cover — list ∩ N(p) for the p of the last BeginCenter — to dst and
// returns it. The output keeps list's sorted order. This is the estimator's
// per-center preprocessing hook: restricting every neighbor's adjacency to
// the ego net once turns each sampled pair probe from a full-list
// intersection into a merge of two short restricted lists.
func (s *Scratch) MarkedOf(dst, list []int32) []int32 {
	return s.reg.IntersectInto(dst, list)
}

// PairContribution returns the term the neighbor pair {u, v} of the
// current center p contributes to CB(p), normalized per pair: 0 when u and
// v are adjacent, 1/(c_p(u,v)+1) otherwise, where c_p(u,v) =
// |N(u) ∩ N(v) ∩ N(p)| is counted against the register marked by
// BeginCenter. The value lies in [0, 1], so uniform pair sampling
// estimates CB(p) = ub(p) · E[PairContribution] with ub(p) = d(d−1)/2 —
// the bounded-range variable the estimator's concentration bounds need.
func (s *Scratch) PairContribution(a graph.Adjacency, u, v int32) float64 {
	if a.HasEdge(u, v) {
		return 0
	}
	c := nbr.CommonMarkedCount(s.reg, a.Neighbors(u), a.Neighbors(v))
	return 1 / float64(c+1)
}
