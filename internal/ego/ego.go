// Package ego implements the paper's primary contribution: exact
// ego-betweenness computation and the two top-k search algorithms
// BaseBSearch (Algorithm 1) and OptBSearch (Algorithm 2/3).
//
// # The quantity
//
// Every pair of neighbors u, v of a vertex p is at distance ≤ 2 inside the
// ego network GE(p) (p itself links them), so Definition 2 collapses to
//
//	CB(p) = Σ over pairs {u,v} ⊆ N(p), (u,v) ∉ E of 1 / (c_p(u,v) + 1)
//
// where c_p(u,v) = |N(u) ∩ N(v) ∩ N(p)| counts the "connectors" — common
// neighbors of u and v other than p that lie inside N(p). Adjacent pairs
// contribute 0, pairs with no connector contribute exactly 1.
//
// # One way to a score
//
// The dense per-ego kernel (EgoBetweenness, computeall.go) scores one
// vertex from its own ego network alone: number N(p), build the ego CSR
// (Scratch.EgoCSR), count connectors per non-adjacent pair in dense arrays,
// fold the counts (FoldScore). The count has two row forms with the same
// bits: an ego of degree ≤ 64 holds each row in one machine word and masks
// the adjacent pairs out 64 at a time; a larger one walks its rows and
// steps over them. Everything per-ego reads that one CSR:
// ComputeAll is a loop of the kernel; both searches (search.go) draw every
// exact score from it and feed their dynamic bound — the marker half of
// Lemma 3's "identified information", a plain counter per vertex — from the
// triangles of each computed vertex's CSR; the sampled estimator
// (internal/approx) copies the CSR as its per-candidate tables; and the
// maintainers' per-vertex evidence maps S_u (pairmap.Map, Theorem 2) are the
// kernel's counting pass written down — the connector count of every
// non-adjacent neighbor pair that has one, beside the histogram whose
// bucket 0 counts the adjacent pairs (EgoBetweennessWithMap,
// ComputeAllWithMaps).
//
// Section V's parallel all-vertices computation is Sweep: workers claim
// whole egos, or chunks of the rows of a heavy one, through an atomic
// cursor, each over its own Scratch. The searches parallelize across
// candidates instead: helpers run the kernels of the candidate heap's next
// ones, read without taking them, and the loop still pops and commits every
// candidate in heap order (searcher). The paper's once-per-edge pass, which
// fills the same maps edge by edge, survives only as a test oracle for the
// kernel's maps. ScoreEvidence scores a map and an adjacent-pair count
// through the same FoldScore, so a map and the kernel agree to the bit.
package ego

import "repro/internal/pairmap"

// Result is a vertex with its exact ego-betweenness. The JSON form is what
// the serving API (internal/server) returns.
type Result struct {
	V  int32   `json:"v"`
	CB float64 `json:"cb"`
}

// StaticUB is the Lemma 2 upper bound ub(p) = d(d−1)/2: the value of CB(p)
// if every neighbor pair were non-adjacent with no connectors.
func StaticUB(d int32) float64 {
	return float64(d) * float64(d-1) / 2
}

// ScoreEvidence evaluates the CB formula for a vertex of degree d with
// `adjacent` adjacent neighbor pairs and the connector counts of evidence
// map s. With complete evidence this is the exact ego-betweenness; with
// partial evidence it is an upper bound (Lemma 3). No evidence (adjacent 0,
// a nil map) yields the Lemma 2 static bound.
//
// The entries are first accumulated into an exact integer histogram over
// the connector counts and the float sum then runs through FoldScore, so the
// returned value is a function of the evidence content alone — independent
// of hash-table iteration order and hence of the internal vertex labeling.
// This is what makes the dense kernel (EgoBetweenness), whose histogram is
// the same multiset under any labeling, bit-identical to any evidence map
// of the same ego, however it was filled.
func ScoreEvidence(d int32, adjacent int64, s *pairmap.Map) float64 {
	var small [64]int64
	hist := small[:]
	hist[0] = adjacent
	if s == nil {
		return FoldScore(d, hist)
	}
	s.Iterate(func(_ uint64, val int32) bool {
		if int(val) >= len(hist) {
			hist = append(hist, make([]int64, int(val)+1-len(hist))...)
		}
		hist[val]++
		return true
	})
	return FoldScore(d, hist)
}

// FoldScore is the one place a score is summed — the kernel, the split
// sweep, ScoreEvidence and the dynamic Maintainer all end here. hist[0] is
// the number of adjacent neighbor pairs and hist[c], c ≥ 1, the number of
// non-adjacent pairs with c connectors; an empty histogram is no evidence.
// Start from d(d−1)/2 (every pair contributing 1), subtract 1 for each
// adjacent pair, and replace 1 by 1/(c+1) for each pair with c connectors —
// summed in ascending-c order, a canonical evaluation order, so equal
// histograms score bitwise identically however they were collected. A
// vertex of degree < 2 has no pair and scores 0.
func FoldScore(d int32, hist []int64) float64 {
	if d < 2 {
		return 0
	}
	var adj float64
	for c, cnt := range hist {
		switch {
		case cnt == 0:
		case c == 0:
			adj -= float64(cnt)
		case c < len(foldTerms):
			adj += float64(cnt) * foldTerms[c]
		default:
			adj += float64(cnt) * (1/float64(c+1) - 1)
		}
	}
	return StaticUB(d) + adj
}

// foldTerms[c] is the term 1/(c+1) − 1 a pair with c connectors adds to
// FoldScore, precomputed for the counts real egos mostly hold; the fold
// computes larger ones in place, to the same bits.
var foldTerms = func() (t [1024]float64) {
	for c := range t {
		t[c] = 1/float64(c+1) - 1
	}
	return t
}()
