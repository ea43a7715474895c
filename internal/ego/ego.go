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
// # Two ways to a score
//
// The dense per-ego kernel (EgoBetweenness, computeall.go) scores one
// vertex from its own ego network alone: number N(p), build the ego CSR,
// count connectors per non-adjacent pair in dense arrays, fold the counts.
// ComputeAll is a loop of it, and both searches (search.go) draw every exact
// score from it; the searches' dynamic bound reads the triangles of a
// computed vertex off the ego CSR the kernel has just built.
//
// The evidence discipline serves the maintainers, which need per-pair state
// that outlives one computation: per-vertex evidence maps S_u (pairmap.Map)
// filled by processing every undirected edge exactly once
// (ComputeAllWithMaps, the parallel engines). Processing edge (a, b) with
// common-neighbor set C = N(a) ∩ N(b):
//
//   - marker: every w ∈ C learns that pair (a, b) is adjacent in GE(w);
//   - credits: every non-adjacent pair {p, q} ⊆ C gains one connector in
//     GE(a) (namely b) and one in GE(b) (namely a).
//
// A credit (center, pair, connector) is produced only by the edge
// (center, connector), so processing every edge of GE(u) once makes S_u
// exact; processing only some of them leaves ScoreEvidence over S_u an
// upper bound — the "identified information" of Lemma 3. OptBSearch keeps
// the marker half of that bound as a plain counter per vertex (searcher).
// Both ways end in one fold (foldScore), so they agree to the bit.
package ego

import (
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

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
// the same multiset under any labeling, bit-identical to the evidence
// engine.
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

// evidence is the engine behind ComputeAllWithMaps: lazily allocated S maps
// and the scratch buffers of applyEdge.
type evidence struct {
	g     graph.View
	maps  []*pairmap.Map
	adj   []int32  // applyEdge: members of comm adjacent to the current one
	pairs []uint64 // applyEdge: keys of the non-adjacent pairs of comm
}

// mapFor returns the evidence map of v, allocating it on first use.
func (e *evidence) mapFor(v int32) *pairmap.Map {
	m := e.maps[v]
	if m == nil {
		m = pairmap.NewWithCapacity(int(e.g.Degree(v)))
		e.maps[v] = m
	}
	return m
}

// applyEdge applies the markers and credits of edge (a, b) whose common
// neighborhood is comm, ascending. Each undirected edge must be applied
// exactly once.
func (e *evidence) applyEdge(a, b int32, comm []int32) {
	key := pairmap.Key(a, b)
	for _, w := range comm {
		e.mapFor(w).SetMarker(key)
	}
	e.pairs, e.adj = NonAdjacentPairs(e.g, comm, e.pairs[:0], e.adj)
	pairs := e.pairs
	if len(pairs) == 0 {
		return
	}
	// One map at a time: a hub's table is megabytes of random probes, and
	// alternating between two of them per pair evicts each from the cache
	// the other just filled. Each map still sees its keys in (i, j) order.
	e.credit(a, pairs)
	e.credit(b, pairs)
}

// NonAdjacentPairs appends to pairs the pairmap keys of the non-adjacent
// pairs of comm — an edge's common neighborhood, ascending — in (i, j)
// order: the pairs that edge connects, which both the sequential evidence
// engine and the parallel engines credit to its endpoints. comm is
// ascending, so the later members adjacent to comm[i] come out of one
// sorted intersection with its neighbor list instead of a HasEdge probe per
// pair. Both buffers are the caller's: pairs is extended, adj is scratch
// for the intersections; both come back, possibly regrown.
func NonAdjacentPairs(g graph.Adjacency, comm []int32, pairs []uint64, adj []int32) ([]uint64, []int32) {
	for i := 0; i+1 < len(comm); i++ {
		p, rest := comm[i], comm[i+1:]
		adj = nbr.IntersectInto(adj[:0], rest, g.Neighbors(p))
		hit := adj
		for _, q := range rest {
			if len(hit) > 0 && hit[0] == q {
				hit = hit[1:]
				continue
			}
			pairs = append(pairs, pairmap.Key(p, q))
		}
	}
	return pairs, adj
}

// credit adds one connector to every pair of pairs in the evidence of v.
func (e *evidence) credit(v int32, pairs []uint64) {
	m := e.mapFor(v)
	for _, pk := range pairs {
		m.Add(pk, 1)
	}
}
