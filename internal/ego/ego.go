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
// # The evidence discipline
//
// All algorithms share one mechanism: per-vertex evidence maps S_u
// (pairmap.Map) filled by processing undirected edges exactly once each.
// Processing edge (a, b) with common-neighbor set C = N(a) ∩ N(b):
//
//   - marker: every w ∈ C learns that pair (a, b) is adjacent in GE(w);
//   - credits: every non-adjacent pair {p, q} ⊆ C gains one connector in
//     GE(a) (namely b) and one in GE(b) (namely a).
//
// A credit (center, pair, connector) is produced only by the edge
// (center, connector), so processing every edge of GE(u) at most once makes
// S_u exact; processing only some of them leaves S_u a partial lower bound,
// which is precisely the "identified information" Lemma 3 turns into the
// dynamic upper bound of OptBSearch. The same scoring function therefore
// computes both the exact CB (complete map) and the dynamic bound ũb
// (partial map).
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
// partial map it is the Lemma 3 dynamic upper bound ũb. A nil map means no
// evidence and yields the Lemma 2 static bound.
//
// The entries are first accumulated into an exact integer histogram over
// the connector counts and the float sum then runs through foldScore, so the
// returned value is a function of the evidence content alone — independent
// of hash-table iteration order and hence of the internal vertex labeling.
// This is what lets a search on a degree-relabeled copy (OptBSearchLabeled)
// return bit-identical scores to the search on the original graph, and the
// dense kernel (EgoBetweenness) bit-identical scores to the evidence engine.
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

// evidence is the shared engine: lazily allocated S maps, the global
// processed-edge set, and scratch buffers. Both search algorithms and the
// all-vertices computation drive it.
type evidence struct {
	g         graph.View
	maps      []*pairmap.Map
	processed *pairmap.Set
	done      []bool // exact CB already extracted; skip further credits
	comm      []int32
	comm2     []int32
	adj       []int32  // applyEdge: members of comm adjacent to the current one
	pairs     []uint64 // applyEdge: keys of the non-adjacent pairs of comm

	// Counters for the experiment harness (Table II, ablations).
	EdgesProcessed int64
	CreditOps      int64
	MarkerOps      int64
}

func newEvidence(g graph.View) *evidence {
	return &evidence{
		g:         g,
		maps:      make([]*pairmap.Map, g.NumVertices()),
		processed: pairmap.NewSet(1024),
		done:      make([]bool, g.NumVertices()),
	}
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
// neighborhood is comm, ascending. Callers must have claimed the edge in
// e.processed.
func (e *evidence) applyEdge(a, b int32, comm []int32) {
	e.EdgesProcessed++
	key := pairmap.Key(a, b)
	for _, w := range comm {
		if !e.done[w] {
			e.mapFor(w).SetMarker(key)
			e.MarkerOps++
		}
	}
	creditA := !e.done[a]
	creditB := !e.done[b]
	if !creditA && !creditB {
		return
	}
	e.pairs, e.adj = NonAdjacentPairs(e.g, comm, e.pairs[:0], e.adj)
	pairs := e.pairs
	if len(pairs) == 0 {
		return
	}
	// One map at a time: a hub's table is megabytes of random probes, and
	// alternating between two of them per pair evicts each from the cache
	// the other just filled. Each map still sees its keys in (i, j) order.
	if creditA {
		e.credit(a, pairs)
	}
	if creditB {
		e.credit(b, pairs)
	}
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
	e.CreditOps += int64(len(pairs))
}

// ensureEgo processes every not-yet-processed edge of GE(u): the d(u) edges
// incident to u and the edges between u's neighbors. Afterwards S_u is exact
// (see the package comment), so ScoreEvidence(d(u), S_u) = CB(u).
//
// The center's neighborhood N(u) is intersected against every neighbor's
// list, so strategy selection runs through nbr.ChooseHub: hub centers are
// marked once into a pooled bitset register and each scan probes it in
// O(d(v)); hub×hub pairs additionally mark the neighbor into a second
// register and intersect word-parallel (AndInto), which also accelerates
// the neighbor's ego-internal edge scans; smaller centers stay on the
// adaptive merge/gallop kernel, which needs no setup. Every kernel emits
// the identical ascending set, so routing never affects any score.
func (e *evidence) ensureEgo(u int32) {
	nu := e.g.Neighbors(u)
	var reg, reg2 *nbr.Register
	if nbr.ChooseHub(len(nu), 0) == nbr.StrategyBitset {
		reg = nbr.AcquireRegister(e.g.NumVertices())
		reg.Mark(nu)
		defer nbr.ReleaseRegister(reg)
		reg2 = nbr.AcquireRegister(e.g.NumVertices())
		defer nbr.ReleaseRegister(reg2)
	}
	for _, v := range nu {
		// T = N(v) ∩ N(u) serves two roles: it is the common
		// neighborhood of edge (u, v), and it lists the ego-internal
		// edges (v, w).
		nv := e.g.Neighbors(v)
		vMarked := false
		switch {
		case reg != nil && nbr.ChooseHub(len(nu), len(nv)) == nbr.StrategyWord:
			reg2.Unmark()
			reg2.Mark(nv)
			vMarked = true
			// Word AND when the summary scan is cheaper than probing
			// N(v) element-by-element; the spans shrink with relabeling.
			minSpan := reg.SpanWords()
			if s2 := reg2.SpanWords(); s2 < minSpan {
				minSpan = s2
			}
			if int(minSpan>>6) <= len(nv) {
				e.comm = reg.AndInto(e.comm[:0], reg2)
			} else {
				e.comm = reg.IntersectInto(e.comm[:0], nv)
			}
		case reg != nil:
			e.comm = reg.IntersectInto(e.comm[:0], nv)
		default:
			e.comm = nbr.IntersectInto(e.comm[:0], nv, nu)
		}
		if e.processed.Insert(pairmap.Key(u, v)) {
			e.applyEdge(u, v, e.comm)
		}
		for _, w := range e.comm {
			if w > v && e.processed.Insert(pairmap.Key(v, w)) {
				if vMarked {
					e.comm2 = reg2.IntersectInto(e.comm2[:0], e.g.Neighbors(w))
				} else {
					e.comm2 = nbr.CommonInto(e.comm2[:0], e.g, v, w)
				}
				e.applyEdge(v, w, e.comm2)
			}
		}
	}
}

// finish extracts the exact CB(u) — S_u must be complete — and releases the
// map, since no later computation reads it.
func (e *evidence) finish(u int32) float64 {
	cb := ScoreEvidence(e.g.Degree(u), e.maps[u])
	e.done[u] = true
	e.maps[u] = nil
	return cb
}
