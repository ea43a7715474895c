package ego

import (
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

// ComputeAll returns the exact ego-betweenness of every vertex of any view
// (frozen CSR, overlay, or dynamic graph): one EgoBetweenness per vertex
// over a single Scratch. Time O(Σ_v d(v)² + Σ_p Σ_{v∈N(p)} |T_v|²) array
// steps (see EgoBetweenness), space O(n) for the result plus the Scratch's
// O(d_max + edges of the largest ego network). Bit-identical to scoring the
// completed maps of ComputeAllWithMaps.
func ComputeAll(g graph.View) []float64 {
	n := g.NumVertices()
	cb := make([]float64, n)
	s := NewScratch(n)
	for v := int32(0); v < n; v++ {
		cb[v] = EgoBetweenness(g, v, s)
	}
	return cb
}

// ComputeAllWithMaps computes every score on the evidence engine and also
// returns the completed evidence maps, which the dynamic maintenance
// algorithms take ownership of. It processes every undirected edge exactly
// once (markers + credits, see the package comment); time O(α·m·d_max) in
// the worst case, space O(m·d_max), matching Theorem 2. maps[v] may be nil
// when vertex v accumulated no evidence (no edges inside GE(v) beyond the
// spokes); such vertices have CB(v) = d(d−1)/2.
func ComputeAllWithMaps(g graph.View) ([]float64, []*pairmap.Map) {
	e := &evidence{g: g, maps: make([]*pairmap.Map, g.NumVertices())}
	var comm []int32
	graph.EachEdgeIn(g, func(u, v int32) bool {
		comm = nbr.CommonInto(comm[:0], g, u, v)
		e.applyEdge(u, v, comm)
		return true
	})
	cb := make([]float64, g.NumVertices())
	for v := int32(0); v < g.NumVertices(); v++ {
		cb[v] = ScoreEvidence(g.Degree(v), e.maps[v])
	}
	return cb, e.maps
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
// This is a sparse evaluation of Everett–Borgatti's A²∘(1−A) over the ego
// adjacency A, in O(Σ_{v∈N(p)} d(v) + Σ_v |T_v|²) array steps.
func EgoBetweenness(a graph.Adjacency, p int32, s *Scratch) float64 {
	cb, _, _ := egoKernel(a, p, s)
	return cb
}

// egoKernel is EgoBetweenness that also hands back the ego CSR of step 2 —
// row i of (off, adj) is T_v for v = N(p)[i], as ascending positions in
// N(p) — valid until the next call on s. The top-k search reads p's
// triangles off it. Both are empty when d(p) < 2: such an ego has no
// neighbor pair, and no CSR is built for it.
func egoKernel(a graph.Adjacency, p int32, s *Scratch) (cb float64, off []int, adj []int32) {
	nu := a.Neighbors(p)
	d := len(nu)
	if d < 2 {
		return 0, nil, nil
	}
	if s == nil {
		s = NewScratch(a.NumVertices())
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

	// cnt and hist are all-zero between calls; every entry written below is
	// reset before returning.
	pos, cnt, hist, touched := s.pos[:d], s.cnt[:d], s.hist[:d], s.touched[:0]
	copy(pos, off)
	hist[0] = int64(len(adj) / 2)
	for x := 0; x < d; x++ {
		// pos[x] has advanced once per member of T_x below x.
		above := adj[pos[x]:off[x+1]]
		for _, y := range above {
			cnt[y] = -1
		}
		for _, v := range adj[off[x]:off[x+1]] {
			pos[v]++
			for _, y := range adj[pos[v]:off[v+1]] {
				c := cnt[y]
				if c < 0 {
					continue
				}
				if c == 0 {
					touched = append(touched, y)
				}
				cnt[y] = c + 1
			}
		}
		for _, y := range touched {
			hist[cnt[y]]++
			cnt[y] = 0
		}
		touched = touched[:0]
		for _, y := range above {
			cnt[y] = 0
		}
	}
	s.touched = touched
	cb = foldScore(int32(d), hist)
	clear(hist)
	return cb, off, adj
}

// Scratch holds the reusable state of EgoBetweenness — the vertex → local id
// table and the dense per-ego arrays — plus the center bitset register of
// the sampling API (sample.go).
type Scratch struct {
	reg *nbr.Register

	loc     []int32 // vertex → local id + 1 inside the current ego, else 0
	off     []int   // ego CSR offsets, d+1 entries
	adj     []int32 // ego CSR: T_v as ascending local ids
	pos     []int   // per-connector cursor into adj
	cnt     []int32 // connector count of the pair (x, y) in flight; −1 = adjacent
	touched []int32 // ids with cnt > 0
	hist    []int64 // hist[c] = pairs with c connectors; hist[0] = adjacent pairs
}

// NewScratch returns scratch space for graphs with up to n vertices; it
// grows automatically if the graph does.
func NewScratch(n int32) *Scratch {
	return &Scratch{reg: nbr.NewRegister(n), loc: make([]int32, n)}
}

// ensure sizes the arrays for a graph of n vertices and an ego of degree d.
func (s *Scratch) ensure(n, d int) {
	if len(s.loc) < n {
		s.loc = append(s.loc, make([]int32, n-len(s.loc))...)
	}
	if len(s.cnt) < d {
		s.pos = append(s.pos, make([]int, d-len(s.pos))...)
		s.cnt = append(s.cnt, make([]int32, d-len(s.cnt))...)
		s.hist = append(s.hist, make([]int64, d-len(s.hist))...)
	}
}
