package ego

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/pairmap"
)

// ComputeAll returns the exact ego-betweenness of every vertex of any view
// (frozen CSR, overlay, or dynamic graph): one EgoBetweenness per vertex
// over a single Scratch, in vertex order on one goroutine: the sequential
// reference every parallel all-vertices path (Sweep and its callers) is
// checked against bit for bit. Time O(Σ_v d(v)² + Σ_p Σ_{v∈N(p)} |T_v|²)
// array steps (see EgoBetweenness), space O(n) for the result plus the
// Scratch's O(d_max + the largest ego-build price Σ_{v∈N(p)} d(v)).
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
		cb[v], maps[v], _ = EgoBetweennessWithMap(g, v, s)
	}
	return cb, maps
}

// EgoBetweenness computes CB(p) for a single vertex from scratch (the core
// of the paper's EgoBWCal, Algorithm 3, without cross-vertex sharing). It
// works on any View (static, overlay or dynamic graph) and is the
// recomputation primitive of the lazy maintainers. Scratch may be nil;
// passing a reused Scratch makes the call allocation-free once warm.
//
// The kernel is dense — arrays indexed by position in N(p), no hashing and
// no HasEdge probe:
//
//  1. number N(p) as local ids 0…d−1 (ascending, like the neighbor list);
//  2. build the ego network's CSR: T_v = N(v) ∩ N(p) as ascending local
//     ids; its half-length is the number of adjacent neighbor pairs;
//  3. for each x ascending, count the connectors of every pair {x, y} with
//     y above x: for every connector v ∈ T_x visit the members y of T_v
//     above x, bumping a dense count — afterwards cnt[y] = c_p(x, y) for
//     the touched y, the non-adjacent pairs {x, y} with at least one
//     connector. The visit has two row forms. An ego whose rows fit one
//     machine word (d ≤ 64) keeps row v as a uint64 and walks the set bits
//     of T_v masked to the non-neighbors of x above x, so an adjacent pair
//     never comes up. A larger ego stamps the members of T_x above x as
//     adjacent (a count no row can lift to 0) and walks T_v above x with a
//     cursor per v that advances by one on each visit;
//  4. fold the touched counts into the histogram over connector counts and
//     score it with FoldScore, the fold ScoreEvidence uses — so the result
//     is bit-identical to ScoreEvidence over a completed evidence map,
//     under any vertex labeling.
//
// Steps 1–2 are Scratch.EgoCSR, steps 3–4 Scratch.score. The build and the
// walk take no data-dependent branch in their inner loops; the bit loop
// exits when the masked word runs out. This is a sparse evaluation of
// Everett–Borgatti's A²∘(1−A) over the ego adjacency A, in
// O(Σ_{v∈N(p)} d(v)) array steps to build plus the ego's Price to count.
func EgoBetweenness(a graph.View, p int32, s *Scratch) float64 {
	cb, _, _ := egoKernel(a, p, s)
	return cb
}

// egoKernel is EgoBetweenness that also hands back the ego CSR it scored
// (see EgoCSR). The top-k search reads p's triangles off it.
func egoKernel(a graph.View, p int32, s *Scratch) (cb float64, off []int, adj []int32) {
	if s == nil {
		s = NewScratch(a.NumVertices())
	}
	nu, off, adj := s.EgoCSR(a, p)
	cb, _ = s.score(nu, off, adj, nil)
	return cb, off, adj
}

// EgoBetweennessWithMap is EgoBetweenness that also emits p's completed
// evidence map S_p (Theorem 2; the state LocalInsert / LocalDelete repair):
// the connector count of every non-adjacent pair with at least one
// connector, keyed by global vertex ids — and p's histogram in FoldScore's
// layout, hist[0] the number of adjacent pairs, trimmed after its last
// non-zero bucket. Both are owned by the caller; the map is nil when no
// non-adjacent pair has a connector. ScoreEvidence over hist[0] and the map,
// and FoldScore over the histogram, both return cb.
func EgoBetweennessWithMap(a graph.View, p int32, s *Scratch) (cb float64, m *pairmap.Map, hist []int64) {
	if s == nil {
		s = NewScratch(a.NumVertices())
	}
	nu, off, adj := s.EgoCSR(a, p)
	cb, hist = s.score(nu, off, adj, &m)
	return cb, m, hist
}

// EgoCSR numbers N(p) as local ids 0…d−1 in neighbor-list order — nu, p's
// neighbor list, is the local id → vertex table — and builds the CSR of the
// ego network on them: row i of (off, adj) is T_v = N(v) ∩ N(p) for
// v = nu[i], as ascending local ids, so every ego-internal edge appears once
// from each side. It is the one per-ego substrate — the score, the evidence
// map, the search's triangle credits and the sampled estimator's tables are
// all read off it. off and adj alias the Scratch and are valid until its
// next call; both are empty when d(p) < 2: such an ego has no neighbor pair,
// and no CSR is built for it. Row v reserves d(v) slots, so adj may need
// capacity up to the ego-build price Σ_{v∈N(p)} d(v), beyond its length.
func (s *Scratch) EgoCSR(a graph.View, p int32) (nu []int32, off []int, adj []int32) {
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
		// No branch: every neighbor w of v writes its local id into the
		// next slot, which only a member of N(p) keeps.
		k, nv := len(adj), a.Neighbors(v)
		off = append(off, k)
		adj = slices.Grow(adj, len(nv))[:k+len(nv)]
		for _, w := range nv {
			l := loc[w]
			adj[k] = l - 1
			if l != 0 {
				k++
			}
		}
		adj = adj[:k]
	}
	off = append(off, len(adj))
	s.off, s.adj = off, adj
	for _, v := range nu {
		loc[v] = 0
	}
	return nu, off, adj
}

// ScoreCSR returns the score of the ego whose CSR (off, adj) EgoCSR built —
// the Scratch's own arrays or a caller's copy of them: the kernel's counting
// pass and fold without the build, so it is the same bits EgoBetweenness
// returns for that ego — and the steps that pass ran, the ego's Price. It
// sizes the Scratch for the ego itself.
func (s *Scratch) ScoreCSR(off []int, adj []int32) (cb float64, steps int64) {
	s.ensure(0, len(off)-1)
	cb, _ = s.score(nil, off, adj, nil)
	return cb, s.steps
}

// score is the whole-ego counting pass: count over every row of the ego
// CSR, then fold the histogram; it leaves the ego's Price in s.steps. nu is
// read only to key a non-nil sink; with one, score also returns a copy of
// the histogram, trimmed after its last non-zero bucket (nil if none), for
// the owner of the evidence to keep.
func (s *Scratch) score(nu []int32, off []int, adj []int32, sink **pairmap.Map) (float64, []int64) {
	d := len(off) - 1
	s.steps = 0
	if d < 2 {
		return 0, nil
	}
	s.count(nu, off, adj, 0, d, sink)
	hist := s.hist[:d]
	s.steps = s.price(off, adj, hist)
	hist[0] = int64(len(adj) / 2)
	cb := FoldScore(int32(d), hist)
	var kept []int64
	if sink != nil {
		t := len(hist)
		for t > 0 && hist[t-1] == 0 {
			t--
		}
		if t > 0 {
			kept = slices.Clone(hist[:t])
		}
	}
	clear(hist)
	return cb, kept
}

// Price is an ego's one price in kernel steps: the steps the counting pass
// runs over all rows of the ego CSR (off, adj) EgoCSR built, in the row
// form count takes. Row x runs one step per connector v ∈ T_x and one per
// pair {x, y} that connector visits, so the walk (d > 64) costs
// Σ_v C(|T_v|, 2) + |adj|, read off the offsets in O(d), and one-word rows
// cost |adj| plus the set bits of every rows[v] & keep_x, in O(|adj|).
// Sweep cuts heavy egos and reports each worker's work in this unit, and
// the approx tier's cost rule prices an exact pass in it.
func (s *Scratch) Price(off []int, adj []int32) int64 { return s.price(off, adj, nil) }

// price is Price; given the histogram a whole-ego count of one-word rows
// left, it reads their visits off it in O(d): c per pair with c connectors.
func (s *Scratch) price(off []int, adj []int32, hist []int64) (w int64) {
	d := len(off) - 1
	switch {
	case d < 2:
	case d > len(s.rows):
		w = int64(len(adj))
		for v := range d {
			l := int64(off[v+1] - off[v])
			w += l * (l - 1) / 2
		}
	case hist != nil:
		w = int64(len(adj))
		for c, h := range hist[:d] {
			w += int64(c) * h
		}
	default:
		for _, r := range s.rowPrices(off, adj) {
			w += int64(r)
		}
	}
	return w
}

// rowPrices returns, in s.pos, the steps count runs for each row x of the
// ego CSR: |T_x| plus its connectors' visits, Σ_{v∈T_x} |T_v above x| on the
// walk and Σ_{v∈T_x} popcount(rows[v] & keep_x) on one-word rows.
func (s *Scratch) rowPrices(off []int, adj []int32) []int {
	w := s.pos[:len(off)-1]
	clear(w)
	if len(w) > len(s.rows) {
		for v := range w { // x ∈ T_v is a connector of row x with |T_v above x| visits
			row := adj[off[v]:off[v+1]]
			for j, x := range row {
				w[x] += len(row) - j
			}
		}
		return w
	}
	rows := s.buildRows(off, adj)
	for x := range w {
		tx, keep := adj[off[x]:off[x+1]], keepOf(rows[x], x)
		w[x] = len(tx)
		for _, v := range tx {
			w[x] += bits.OnesCount64(rows[v] & keep)
		}
	}
	return w
}

// count is the kernel's counting pass (step 3 of EgoBetweenness) over the
// rows x ∈ [lo, hi) of the ego CSR EgoCSR built for the vertex whose
// neighbor list is nu (d ≥ 2): it adds the connector count of every touched
// pair into s.hist[1:]. With a non-nil sink it also records the evidence:
// the final connector count per touched pair, written once, outside the
// inner loop, into a map allocated at the first count. An ego whose rows
// fit one machine word (d ≤ 64) takes countWords, a larger one countWalk;
// both visit the touched pairs in the same order, so the histogram and the
// map's slots are the same bits either way.
func (s *Scratch) count(nu []int32, off []int, adj []int32, lo, hi int, sink **pairmap.Map) {
	if len(off)-1 <= len(s.rows) {
		s.countWords(nu, off, adj, lo, hi, sink)
	} else {
		s.countWalk(nu, off, adj, lo, hi, sink)
	}
}

// countWalk is count for any d: for each x it stamps the members of T_x
// above x as adjacent, and every connector v ∈ T_x walks the part of T_v
// above x, adjacent pairs included.
func (s *Scratch) countWalk(nu []int32, off []int, adj []int32, lo, hi int, sink **pairmap.Map) {
	d := len(off) - 1
	// cnt is all-zero between calls; every entry written below is reset
	// before returning.
	pos, cnt, touched := s.pos[:d], s.cnt[:d], s.touched[:d]
	// pos[v] starts past the members of T_v below lo.
	copy(pos, off)
	if lo > 0 {
		for v := range pos {
			i, _ := slices.BinarySearch(adj[off[v]:off[v+1]], int32(lo))
			pos[v] += i
		}
	}
	for x := lo; x < hi; x++ {
		// pos[x] has advanced once per member of T_x below x.
		above := adj[pos[x]:off[x+1]]
		for _, y := range above {
			cnt[y] = stamped
		}
		nt := walkRow(adj, off, pos, cnt, touched, x)
		for _, y := range above {
			cnt[y] = 0
		}
		s.flush(nu, x, nt, sink)
	}
}

// walkRow is countWalk's row x: it returns the number of ids it touched,
// listed in touched with their counts in cnt. It is kept out of line, like
// wordRow: inlined into the loop over x, whose flush call spills registers,
// its running count nt and cursor would live on the stack.
//
//go:noinline
func walkRow(adj []int32, off, pos []int, cnt, touched []int32, x int) (nt int) {
	for _, v := range adj[off[x]:off[x+1]] {
		pos[v]++
		for _, y := range adj[pos[v]:off[v+1]] {
			// No branch: every step bumps cnt[y] (a stamped entry stays
			// negative) and writes y into the next touched slot, kept
			// only on a first touch; at most d−1 ids lie above x.
			c := cnt[y]
			cnt[y] = c + 1
			touched[nt] = y
			if c == 0 {
				nt++
			}
		}
	}
	return nt
}

// countWords is count for d ≤ 64, on one word per row: bit y of rows[v] is
// set when y ∈ T_v. For each x, keep masks out x's neighbors and every id
// up to x, and each connector v ∈ T_x walks the set bits of rows[v] & keep
// in ascending order — the steps of countWalk's walk minus the adjacent
// pairs, which need no stamp because they never come up. A row without
// connectors touches nothing and is skipped.
func (s *Scratch) countWords(nu []int32, off []int, adj []int32, lo, hi int, sink **pairmap.Map) {
	d := len(off) - 1
	rows, cnt, touched := s.buildRows(off, adj), s.cnt[:d], s.touched[:d]
	for x := lo; x < hi; x++ {
		if tx := adj[off[x]:off[x+1]]; len(tx) > 0 {
			s.flush(nu, x, wordRow(rows, tx, cnt, touched, x), sink)
		}
	}
}

// buildRows fills countWords' one word per row off the ego CSR (d ≤ 64).
func (s *Scratch) buildRows(off []int, adj []int32) []uint64 {
	rows := s.rows[:len(off)-1]
	for v := range rows {
		var r uint64
		for _, y := range adj[off[v]:off[v+1]] {
			r |= 1 << (y & 63) // y < d ≤ 64: the mask only spares the shift its range check
		}
		rows[v] = r
	}
	return rows
}

// keepOf masks row x's neighbors and every id up to x out of a word: at
// x = 63, 2<<63 wraps to 0 and 0−1 is all ones.
func keepOf(row uint64, x int) uint64 { return ^row &^ (uint64(2)<<x - 1) }

// wordRow is countWords' row x, whose connectors tx = T_x are given: it
// returns the number of ids it touched, listed in touched with their counts
// in cnt. It is kept out of line like walkRow.
//
//go:noinline
func wordRow(rows []uint64, tx, cnt, touched []int32, x int) (nt int) {
	keep := keepOf(rows[x], x)
	for _, v := range tx {
		for b := rows[v] & keep; b != 0; b &= b - 1 {
			y := int32(bits.TrailingZeros64(b))
			c := cnt[y]
			cnt[y] = c + 1
			touched[nt] = y
			if c == 0 {
				nt++
			}
		}
	}
	return nt
}

// flush ends row x of the counting pass: it writes the touched pairs'
// connector counts into the sink (allocating the map at the first one),
// adds them to the histogram and resets them to 0.
func (s *Scratch) flush(nu []int32, x, nt int, sink **pairmap.Map) {
	cnt, hist, touched := s.cnt, s.hist, s.touched[:nt]
	if sink != nil && len(touched) > 0 {
		if *sink == nil {
			*sink = pairmap.NewWithCapacity(len(nu))
		}
		for _, y := range touched {
			(*sink).Set(pairmap.Key(nu[x], nu[y]), cnt[y])
		}
	}
	for _, y := range touched {
		hist[cnt[y]]++
		cnt[y] = 0
	}
}

// stamped is the count the counting pass gives a pair {x, y} that is an
// edge of the ego before its row runs. A row adds at most d−2 to a pair, so
// a stamped entry stays negative: never 0, so never taken for a first touch.
const stamped = math.MinInt32

// Scratch holds the reusable state of the per-ego kernel: the vertex → local
// id table and the dense per-ego arrays.
type Scratch struct {
	loc     []int32    // vertex → local id + 1 inside the current ego, else 0
	off     []int      // ego CSR offsets, d+1 entries
	adj     []int32    // ego CSR: T_v as ascending local ids; capacity up to the ego-build price
	pos     []int      // per-connector cursor into adj
	cnt     []int32    // connector count of the pair (x, y) in flight; < 0 = adjacent (stamped)
	touched []int32    // ids with cnt > 0 for the x in flight, d slots
	hist    []int64    // hist[c] = pairs with c connectors; hist[0] = adjacent pairs
	rows    [64]uint64 // countWords' ego adjacency, one word per row
	steps   int64      // the Price of the ego score last counted
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
