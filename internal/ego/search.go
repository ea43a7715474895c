package ego

import (
	"repro/internal/graph"
	"repro/internal/pairmap"
	"repro/internal/topk"
)

// SearchStats reports what a top-k search did, feeding Table II (exact
// computations) and the pruning ablations.
type SearchStats struct {
	Computed       int64 // vertices whose CB was computed exactly
	Pruned         int64 // vertices discarded by a bound without computation
	Reinserted     int64 // OptBSearch: vertices pushed back with a tighter bound
	BoundRefreshes int64 // OptBSearch: dynamic bound evaluations
	EdgesProcessed int64 // undirected edges processed once
	CreditOps      int64 // connector-credit map operations
}

// BaseBSearch is Algorithm 1: top-k ego-betweenness search under the static
// Lemma 2 bound. Vertices are visited in the total order ≺ (non-increasing
// static bound) and the search stops as soon as the k-th best exact score
// dominates the next static bound. Results are sorted by descending CB,
// ties by ascending vertex id.
//
// Faithful to the published algorithm, evidence is gathered by progressive
// oriented triangle enumeration: processing vertex u enumerates the
// triangles whose ≺-highest vertex is u, and each triangle triggers
// UptSMap-style scans of the incident neighborhoods to discover diamonds —
// the O(d_max)-per-triangle cost that Theorem 2 charges. Because every
// triangle containing u has its top vertex at or before u in the order, S_u
// is complete when u's own triangles have been enumerated, exactly the
// paper's invariant.
//
// One correction to the printed pseudocode (DESIGN.md §4): as published,
// UptSMap credits every diamond twice, once from each of its two triangles.
// The scans here apply a credit for pair (x, w) discovered from a triangle
// (·, connector, w) only when x > w, so across the diamond's two triangles
// exactly one credit fires.
func BaseBSearch(g graph.View, k int) ([]Result, SearchStats) {
	var st SearchStats
	r := topk.NewBounded(k)
	order := graph.OrderOf(g)
	o := graph.Orient(g)
	maps := make([]*pairmap.Map, g.NumVertices())
	done := make([]bool, g.NumVertices())
	mapFor := func(v int32) *pairmap.Map {
		if maps[v] == nil {
			maps[v] = pairmap.NewWithCapacity(int(g.Degree(v)))
		}
		return maps[v]
	}
	// uptSMap scans N(p) for diamonds closed by triangle (p, a, b): every
	// x ∈ N(p) adjacent to exactly one of {a, b} forms a non-adjacent pair
	// with the other, connected through the adjacent one.
	uptSMap := func(p, a, b int32) {
		if done[p] {
			return
		}
		m := mapFor(p)
		for _, x := range g.Neighbors(p) {
			adjA := x == a || g.HasEdge(x, a)
			adjB := x == b || g.HasEdge(x, b)
			st.CreditOps++
			if adjA && !adjB && x > b {
				m.Add(pairmap.Key(x, b), 1)
			} else if adjB && !adjA && x > a {
				m.Add(pairmap.Key(x, a), 1)
			}
		}
	}
	marked := make([]bool, g.NumVertices())
	for idx, u := range order {
		ub := StaticUB(g.Degree(u))
		if min, ok := r.Min(); ok && min >= ub {
			st.Pruned = int64(len(order) - idx)
			break
		}
		// Enumerate the triangles owned by u (u is the ≺-top vertex).
		outU := o.OutNeighbors(u)
		for _, v := range outU {
			marked[v] = true
		}
		for _, v := range outU {
			for _, w := range o.OutNeighbors(v) {
				if !marked[w] {
					continue
				}
				// Triangle (u, v, w): markers for all three egos,
				// diamond scans for all three egos.
				if !done[w] {
					mapFor(w).SetMarker(pairmap.Key(u, v))
				}
				if !done[v] {
					mapFor(v).SetMarker(pairmap.Key(u, w))
				}
				mapFor(u).SetMarker(pairmap.Key(v, w))
				uptSMap(u, v, w)
				uptSMap(v, u, w)
				uptSMap(w, u, v)
				st.EdgesProcessed++ // one triangle enumerated
			}
		}
		for _, v := range outU {
			marked[v] = false
		}
		r.Add(u, ScoreEvidence(g.Degree(u), maps[u]))
		done[u] = true
		maps[u] = nil
		st.Computed++
	}
	return toResults(r), st
}

// OptBSearch is Algorithm 2: top-k search under the dynamic Lemma 3 bound.
// Candidates live in a max-heap keyed by their last-known bound. On pop the
// bound is re-evaluated against the evidence accumulated so far ("identified
// information"); if it has dropped by more than the gradient ratio θ ≥ 1 the
// vertex is pushed back (or pruned when it can no longer reach the top-k)
// instead of being computed. θ trades bound-refresh cost against exact
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
	if theta < 1 {
		theta = 1
	}
	var st SearchStats
	e := newEvidence(g)
	r := topk.NewBoundedLabeled(k, ext)
	n := g.NumVertices()
	h := topk.NewMaxHeapLabeled(int(n), ext)
	for v := int32(0); v < n; v++ {
		h.Push(v, StaticUB(g.Degree(v)))
	}
	for h.Len() > 0 {
		top := h.Pop()
		v, tb := top.V, top.Score
		ub := ScoreEvidence(g.Degree(v), e.maps[v]) // Lemma 3 dynamic bound
		st.BoundRefreshes++
		if theta*ub < tb {
			// The bound dropped substantially: defer or prune.
			if min, ok := r.Min(); !ok || ub > min {
				h.Push(v, ub)
				st.Reinserted++
			} else {
				st.Pruned++
			}
			continue
		}
		if min, ok := r.Min(); ok && tb <= min {
			// tb is the largest bound left; nothing remaining can
			// enter the top-k.
			st.Pruned += int64(h.Len()) + 1
			break
		}
		e.ensureEgo(v)
		r.Add(v, e.finish(v))
		st.Computed++
	}
	st.EdgesProcessed = e.EdgesProcessed
	st.CreditOps = e.CreditOps
	return toResultsLabeled(r, ext), st
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
