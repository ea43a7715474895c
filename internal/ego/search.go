package ego

import (
	"repro/internal/graph"
	"repro/internal/topk"
)

// SearchStats reports what a top-k search did, feeding Table II (exact
// computations) and the pruning ablations.
type SearchStats struct {
	Computed       int64 // vertices whose CB was computed exactly
	Pruned         int64 // vertices discarded by a bound without computation
	Reinserted     int64 // OptBSearch: vertices pushed back with a tighter bound
	BoundRefreshes int64 // OptBSearch: dynamic bound evaluations
	EdgesProcessed int64 // OptBSearch: ego-internal edges (triangles) walked for the bound
	CreditOps      int64 // OptBSearch: increments of the adjacent-pair counters
}

// BaseBSearch is Algorithm 1: top-k ego-betweenness search under the static
// Lemma 2 bound. Vertices are visited in the total order ≺ (non-increasing
// static bound, ties by descending id) and the search stops as soon as the
// k-th best exact score dominates the next static bound. Results are sorted
// by descending CB, ties by ascending vertex id.
//
// It is the search loop (searcher) without the dynamic bound: every popped
// candidate that could still enter the result set is scored by the dense
// per-ego kernel (EgoBetweenness), which needs no cross-vertex evidence.
func BaseBSearch(g graph.View, k int) ([]Result, SearchStats) {
	return newSearcher(g, k, 1, nil, false).run()
}

// OptBSearch is Algorithm 2: top-k search under the dynamic Lemma 3 bound.
// Candidates live in a max-heap keyed by their last-known bound. On pop the
// bound is re-evaluated against the "identified information" accumulated so
// far — here the triangles seen while scoring earlier vertices, see
// searcher; if it has dropped by more than the gradient ratio θ ≥ 1 the
// vertex is pushed back (or pruned when it can no longer reach the top-k)
// instead of being computed. θ trades reinsertions against exact
// computations; the paper's default is 1.05.
func OptBSearch(g graph.View, k int, theta float64) ([]Result, SearchStats) {
	return OptBSearchLabeled(g, k, theta, nil)
}

// OptBSearchLabeled is OptBSearch on an internally relabeled graph whose
// external labels are ext (ext[v] = external id of internal vertex v, as in
// graph.Relabeled.Ext). The candidate heap pops score ties by external label
// and results carry external ids, so the whole search trajectory — and the
// output — is bitwise identical to OptBSearch on the unrelabeled graph. A
// nil ext means identity labels. Nothing serves through it: it is the
// library half of the degree-relabeling layout experiment (DESIGN.md §12)
// that the benchmark's ego.opt.relabeled_k100_ms keeps measuring.
func OptBSearchLabeled(g graph.View, k int, theta float64, ext []int32) ([]Result, SearchStats) {
	return newSearcher(g, k, max(theta, 1), ext, true).run()
}

// searcher is the one loop behind both searches: a candidate heap H keyed by
// upper bound, the result set R, and one Scratch for the exact scores. Every
// vertex starts in H under the static bound d(d−1)/2; step pops the largest.
//
// With dynamic set, t[v] counts the adjacent neighbor pairs of v identified
// so far, and the Lemma 3 bound is ũb(v) = d(d−1)/2 − t[v]: every pair of
// N(v) contributes at most 1 to CB(v) and an adjacent pair contributes 0.
// This is Lemma 3 restricted to markers — the part of the identified
// information that costs nothing, because the ego CSR the kernel builds for
// a computed vertex p lists every triangle {p, a, b} as an ego-internal
// edge (a, b). The first vertex of a triangle to be computed credits the
// other two; later ones find that vertex done and credit nothing, so t[v]
// counts each triangle at most once per corner and never exceeds the true
// number of adjacent pairs. Bounds only order and prune candidates: every
// score in R comes from the kernel.
type searcher struct {
	g     graph.View
	theta float64
	ext   []int32 // external labels: tie order in R and H, ids of the results
	r     *topk.Bounded
	h     *topk.MaxHeap
	s     *Scratch
	t     []int64 // nil under the static bound (BaseBSearch)
	done  []bool  // computed exactly; its triangles have been credited
	st    SearchStats
}

func newSearcher(g graph.View, k int, theta float64, ext []int32, dynamic bool) *searcher {
	n := g.NumVertices()
	q := &searcher{
		g:     g,
		theta: theta,
		ext:   ext,
		r:     topk.NewBoundedLabeled(k, ext),
		h:     topk.NewMaxHeapLabeled(int(n), ext),
		s:     NewScratch(n),
	}
	if dynamic {
		q.t = make([]int64, n)
		q.done = make([]bool, n)
	}
	for v := int32(0); v < n; v++ {
		q.h.Push(v, StaticUB(g.Degree(v)))
	}
	return q
}

// run steps the search to its end.
func (q *searcher) run() ([]Result, SearchStats) {
	for q.step() {
	}
	return toResultsLabeled(q.r, q.ext), q.st
}

// bound is the dynamic upper bound ũb(v) under the triangles seen so far.
func (q *searcher) bound(v int32) float64 {
	return StaticUB(q.g.Degree(v)) - float64(q.t[v])
}

// step handles the candidate with the largest bound: prunes it, defers it
// under a tighter bound, or computes it. It reports false once the search is
// over. R is ordered by (score desc, label asc), so a candidate is hopeless
// exactly when its bound does not beat the worst held item under its own
// label: below the k-th score everything left in H is hopeless too, while
// on a tie with the k-th score only this candidate is — H pops the larger
// label first, and a later one with the same bound may carry a smaller.
func (q *searcher) step() bool {
	if q.h.Len() == 0 {
		return false
	}
	top := q.h.Pop()
	v, tb := top.V, top.Score
	worst, full := q.r.Worst()
	if full && !q.r.Beats(v, tb, worst) {
		if tb < worst.Score {
			q.st.Pruned += int64(q.h.Len()) + 1
			return false
		}
		q.st.Pruned++
		return true
	}
	if q.t != nil {
		ub := q.bound(v)
		q.st.BoundRefreshes++
		if q.theta*ub < tb {
			// The bound dropped substantially: defer or prune.
			if !full || ub >= worst.Score {
				q.h.Push(v, ub)
				q.st.Reinserted++
			} else {
				q.st.Pruned++
			}
			return true
		}
	}
	cb, off, adj := egoKernel(q.g, v, q.s)
	q.r.Add(v, cb)
	q.st.Computed++
	if q.t != nil {
		q.credit(v, off, adj)
	}
	return true
}

// credit feeds the bound from the ego CSR of the just-computed p: edge
// (a, b) between two neighbors is the triangle {p, a, b}, an adjacent pair
// in GE(a) and in GE(b). A done endpoint means that vertex discovered the
// triangle first and credited the rest of it then.
func (q *searcher) credit(p int32, off []int, adj []int32) {
	q.done[p] = true
	q.st.EdgesProcessed += int64(len(adj) / 2)
	nu := q.g.Neighbors(p)
	for x := 0; x+1 < len(off); x++ {
		a := nu[x]
		if q.done[a] {
			continue
		}
		var credits int64
		for _, y := range adj[off[x]:off[x+1]] {
			if int(y) > x && !q.done[nu[y]] {
				q.t[nu[y]]++
				credits++
			}
		}
		q.t[a] += credits
		q.st.CreditOps += 2 * credits
	}
}

// TopKExact is the straightforward baseline: compute every vertex exactly
// and sort. It anchors correctness tests and the "compute all" reference
// point in the experiments.
func TopKExact(g graph.View, k int) []Result {
	cb := ComputeAll(g)
	r := topk.NewBounded(k)
	for v := int32(0); v < g.NumVertices(); v++ {
		r.Add(v, cb[v])
	}
	return toResults(r)
}

// TopKOf selects the k best of n scores read through at(v), sorted
// descending with ties by ascending id. The accessor form lets callers hold
// scores in any layout — the serving layer's chunked copy-on-write vector
// reads through it without flattening.
func TopKOf(n int32, at func(int32) float64, k int) []Result {
	r := topk.NewBounded(k)
	for v := int32(0); v < n; v++ {
		r.Add(v, at(v))
	}
	return toResults(r)
}

// TopKOfScores selects the k best vertices from a precomputed score vector
// (maintained scores, a frozen snapshot, …), sorted descending with ties by
// ascending id. Shared by Maintainer.TopK and the serving layer.
func TopKOfScores(scores []float64, k int) []Result {
	return TopKOf(int32(len(scores)), func(v int32) float64 { return scores[v] }, k)
}

func toResults(r *topk.Bounded) []Result {
	return toResultsLabeled(r, nil)
}

// toResultsLabeled extracts results translated to external ids. The Bounded
// must have been constructed with the same ext, so its tie-sort already ran
// on external labels and the translated list stays ordered.
func toResultsLabeled(r *topk.Bounded, ext []int32) []Result {
	items := r.Results()
	out := make([]Result, len(items))
	for i, it := range items {
		v := it.V
		if ext != nil {
			v = ext[v]
		}
		out[i] = Result{V: v, CB: it.Score}
	}
	return out
}

// Overlap returns |A ∩ B| / max(|A|, |B|) over the vertex sets of two result
// lists — the effectiveness metric of Fig. 11/12 (reported there as the
// overlap of top-k betweenness and top-k ego-betweenness).
func Overlap(a, b []Result) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[int32]struct{}, len(a))
	for _, x := range a {
		set[x.V] = struct{}{}
	}
	inter := 0
	for _, y := range b {
		if _, ok := set[y.V]; ok {
			inter++
		}
	}
	den := len(a)
	if len(b) > den {
		den = len(b)
	}
	return float64(inter) / float64(den)
}
