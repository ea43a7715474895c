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
// fold the counts (foldScore). Everything per-ego reads that one CSR:
// ComputeAll is a loop of the kernel; both searches (search.go) draw every
// exact score from it and feed their dynamic bound — the marker half of
// Lemma 3's "identified information", a plain counter per vertex — from the
// triangles of each computed vertex's CSR; the sampled estimator
// (internal/approx) copies the CSR as its per-candidate tables; and the
// maintainers' per-vertex evidence maps S_u (pairmap.Map, Theorem 2) are the
// kernel's counting pass written down — a marker for every adjacent
// neighbor pair, the connector count of every other pair that has one
// (EgoBetweennessWithMap, ComputeAllWithMaps).
//
// The paper fills the same maps edge by edge instead — every undirected edge
// (a, b) marks its pair in the maps of N(a) ∩ N(b) and credits one connector
// to each non-adjacent pair of that set in the maps of a and b. That pass is
// Section V's parallel algorithms and lives in internal/parallel, where it
// doubles as the independent check of the kernel's maps. ScoreEvidence
// scores a map through the same foldScore, so both routes agree to the bit.
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

// ScoreEvidence evaluates the CB formula over an evidence map for a vertex of
// degree d. With a complete map this is the exact ego-betweenness; with a
// partial map it is an upper bound (Lemma 3). A nil map means no evidence
// and yields the Lemma 2 static bound.
//
// The entries are first accumulated into an exact integer histogram over
// the connector counts and the float sum then runs through foldScore, so the
// returned value is a function of the evidence content alone — independent
// of hash-table iteration order and hence of the internal vertex labeling.
// This is what makes the dense kernel (EgoBetweenness), whose histogram is
// the same multiset under any labeling, bit-identical to the edge pass of
// internal/parallel.
func ScoreEvidence(d int32, s *pairmap.Map) float64 {
	if s == nil {
		return foldScore(d, nil)
	}
	var small [64]int64
	hist := small[:]
	// pairmap.Marker is 0, so hist[0] counts the adjacent pairs.
	s.Iterate(func(_ uint64, val int32) bool {
		if int(val) >= len(hist) {
			hist = append(hist, make([]int64, int(val)+1-len(hist))...)
		}
		hist[val]++
		return true
	})
	return foldScore(d, hist)
}

// foldScore is the one place a score is summed. hist[0] is the number of
// adjacent neighbor pairs and hist[c], c ≥ 1, the number of non-adjacent
// pairs with c connectors; an empty histogram is no evidence. Start from
// d(d−1)/2 (every pair contributing 1), subtract 1 for each adjacent pair,
// and replace 1 by 1/(c+1) for each pair with c connectors — summed in
// ascending-c order, a canonical evaluation order, so equal histograms score
// bitwise identically however they were collected.
func foldScore(d int32, hist []int64) float64 {
	var adj float64
	for c, cnt := range hist {
		switch {
		case cnt == 0:
		case c == 0:
			adj -= float64(cnt)
		default:
			adj += float64(cnt) * (1/float64(c+1) - 1)
		}
	}
	return StaticUB(d) + adj
}
