package ego

import (
	"repro/internal/graph"
	"repro/internal/pairmap"
)

// ComputeAll returns the exact ego-betweenness of every vertex of any view
// (frozen CSR, overlay, or dynamic graph): one EgoBetweenness per vertex
// over a single Scratch. Time O(Σ_v d(v)² + Σ_p Σ_{v∈N(p)} |T_v|²) array
// steps (see EgoBetweenness), space O(n) for the result plus the Scratch's
// O(d_max + edges of the largest ego network).
func ComputeAll(g graph.View) []float64 {
	n := g.NumVertices()
	cb := make([]float64, n)
	s := NewScratch(n)
	for v := int32(0); v < n; v++ {
		cb[v] = EgoBetweenness(g, v, s)
	}
	return cb
}

// ComputeAllWithMaps is ComputeAll that also returns every vertex's
// completed evidence map (EgoBetweennessWithMap), which the dynamic
// maintainers take ownership of; space O(m·d_max) in the worst case,
// matching Theorem 2. The scores are the same bits as ComputeAll's.
func ComputeAllWithMaps(g graph.View) ([]float64, []*pairmap.Map) {
	n := g.NumVertices()
	cb, maps := make([]float64, n), make([]*pairmap.Map, n)
	s := NewScratch(n)
	for v := int32(0); v < n; v++ {
		cb[v], maps[v] = EgoBetweennessWithMap(g, v, s)
	}
	return cb, maps
}

// EgoBetweenness computes CB(p) for a single vertex from scratch (the core
// of the paper's EgoBWCal, Algorithm 3, without cross-vertex sharing). It
// works on any Adjacency (static, overlay or dynamic graph) and is the
// recomputation primitive of the lazy maintainers. Scratch may be nil;
// passing a reused Scratch makes the call allocation-free once warm.
//
// The kernel is dense — arrays indexed by position in N(p), no hashing and
// no HasEdge probe:
//
//  1. number N(p) as local ids 0…d−1 (ascending, like the neighbor list);
//  2. build the ego network's CSR: T_v = N(v) ∩ N(p) as ascending local
//     ids; its half-length is the number of adjacent neighbor pairs;
//  3. for each x ascending, stamp the members of T_x above x as adjacent,
//     and for every connector v ∈ T_x walk the part of T_v above x — a
//     cursor per v that advances by one on each visit — bumping a dense
//     count for every unstamped y: afterwards cnt[y] = c_p(x, y) for the
//     non-adjacent pairs {x, y} with at least one connector;
//  4. fold the touched counts into the histogram over connector counts and
//     score it with foldScore, the fold ScoreEvidence uses — so the result
//     is bit-identical to ScoreEvidence over a completed evidence map,
//     under any vertex labeling.
//
// Steps 1–2 are Scratch.EgoCSR, steps 3–4 Scratch.count. This is a sparse
// evaluation of Everett–Borgatti's A²∘(1−A) over the ego adjacency A, in
// O(Σ_{v∈N(p)} d(v) + Σ_v |T_v|²) array steps.
func EgoBetweenness(a graph.Adjacency, p int32, s *Scratch) float64 {
	cb, _, _ := egoKernel(a, p, s)
	return cb
}

// egoKernel is EgoBetweenness that also hands back the ego CSR it scored
// (see EgoCSR). The top-k search reads p's triangles off it.
func egoKernel(a graph.Adjacency, p int32, s *Scratch) (cb float64, off []int, adj []int32) {
	if s == nil {
		s = NewScratch(a.NumVertices())
	}
	nu, off, adj := s.EgoCSR(a, p)
	return s.count(nu, off, adj, nil), off, adj
}

// EgoBetweennessWithMap is EgoBetweenness that also emits p's completed
// evidence map S_p (Theorem 2; the state LocalInsert / LocalDelete repair):
// a marker for every adjacent neighbor pair and the connector count of every
// non-adjacent pair with at least one connector, keyed by global vertex ids.
// The map is owned by the caller; it is nil when GE(p) has no edge beyond the
// spokes — no evidence, CB(p) = d(d−1)/2. ScoreEvidence over it returns cb.
func EgoBetweennessWithMap(a graph.Adjacency, p int32, s *Scratch) (cb float64, m *pairmap.Map) {
	if s == nil {
		s = NewScratch(a.NumVertices())
	}
	nu, off, adj := s.EgoCSR(a, p)
	if len(adj) > 0 {
		m = pairmap.NewWithCapacity(len(nu))
	}
	return s.count(nu, off, adj, m), m
}

// EgoCSR numbers N(p) as local ids 0…d−1 in neighbor-list order — nu, p's
// neighbor list, is the local id → vertex table — and builds the CSR of the
// ego network on them: row i of (off, adj) is T_v = N(v) ∩ N(p) for
// v = nu[i], as ascending local ids, so every ego-internal edge appears once
// from each side. It is the one per-ego substrate — the score, the evidence
// map, the search's triangle credits and the sampled estimator's tables are
// all read off it. off and adj alias the Scratch and are valid until its
// next call; both are empty when d(p) < 2: such an ego has no neighbor pair,
// and no CSR is built for it.
func (s *Scratch) EgoCSR(a graph.Adjacency, p int32) (nu []int32, off []int, adj []int32) {
	nu = a.Neighbors(p)
	d := len(nu)
	if d < 2 {
		return nu, nil, nil
	}
	s.ensure(int(a.NumVertices()), d)

	loc := s.loc
	for i, v := range nu {
		loc[v] = int32(i) + 1
	}
	off, adj = s.off[:0], s.adj[:0]
	for _, v := range nu {
		off = append(off, len(adj))
		for _, w := range a.Neighbors(v) {
			if l := loc[w]; l != 0 {
				adj = append(adj, l-1)
			}
		}
	}
	off = append(off, len(adj))
	s.off, s.adj = off, adj
	for _, v := range nu {
		loc[v] = 0
	}
	return nu, off, adj
}

// count is the kernel's counting pass (steps 3–4 of EgoBetweenness) over the
// ego CSR EgoCSR built for the vertex whose neighbor list is nu. With a
// non-nil sink it also records the evidence: a marker per adjacent pair and
// the final connector count per touched pair, each written once, outside the
// inner loop.
func (s *Scratch) count(nu []int32, off []int, adj []int32, sink *pairmap.Map) float64 {
	d := len(nu)
	if d < 2 {
		return 0
	}
	// cnt and hist are all-zero between calls; every entry written below is
	// reset before returning.
	pos, cnt, hist, touched := s.pos[:d], s.cnt[:d], s.hist[:d], s.touched[:d]
	copy(pos, off)
	hist[0] = int64(len(adj) / 2)
	for x := 0; x < d; x++ {
		// pos[x] has advanced once per member of T_x below x.
		above := adj[pos[x]:off[x+1]]
		for _, y := range above {
			cnt[y] = -1
		}
		nt := 0
		for _, v := range adj[off[x]:off[x+1]] {
			pos[v]++
			for _, y := range adj[pos[v]:off[v+1]] {
				c := cnt[y]
				if c < 0 {
					continue
				}
				if c == 0 { // at most d ids are touched per x
					touched[nt] = y
					nt++
				}
				cnt[y] = c + 1
			}
		}
		if sink != nil {
			for _, y := range above {
				sink.SetMarker(pairmap.Key(nu[x], nu[y]))
			}
			for _, y := range touched[:nt] {
				sink.Set(pairmap.Key(nu[x], nu[y]), cnt[y])
			}
		}
		for _, y := range touched[:nt] {
			hist[cnt[y]]++
			cnt[y] = 0
		}
		for _, y := range above {
			cnt[y] = 0
		}
	}
	cb := foldScore(int32(d), hist)
	clear(hist)
	return cb
}

// Scratch holds the reusable state of the per-ego kernel: the vertex → local
// id table and the dense per-ego arrays.
type Scratch struct {
	loc     []int32 // vertex → local id + 1 inside the current ego, else 0
	off     []int   // ego CSR offsets, d+1 entries
	adj     []int32 // ego CSR: T_v as ascending local ids
	pos     []int   // per-connector cursor into adj
	cnt     []int32 // connector count of the pair (x, y) in flight; −1 = adjacent
	touched []int32 // ids with cnt > 0 for the x in flight, d slots
	hist    []int64 // hist[c] = pairs with c connectors; hist[0] = adjacent pairs
}

// NewScratch returns scratch space for graphs with up to n vertices; it
// grows automatically if the graph does.
func NewScratch(n int32) *Scratch {
	return &Scratch{loc: make([]int32, n)}
}

// ensure sizes the arrays for a graph of n vertices and an ego of degree d.
func (s *Scratch) ensure(n, d int) {
	if len(s.loc) < n {
		s.loc = append(s.loc, make([]int32, n-len(s.loc))...)
	}
	if len(s.cnt) < d {
		s.pos = append(s.pos, make([]int, d-len(s.pos))...)
		s.cnt = append(s.cnt, make([]int32, d-len(s.cnt))...)
		s.touched = append(s.touched, make([]int32, d-len(s.touched))...)
		s.hist = append(s.hist, make([]int64, d-len(s.hist))...)
	}
}
