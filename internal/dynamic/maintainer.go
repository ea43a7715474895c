package dynamic

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

// Maintainer keeps the ego-betweennesses of every vertex under edge updates.
// Its map-holding form (NewMaintainer) is the paper's LocalInsert /
// LocalDelete, every score exact. The repairs move integer connector
// counts only: each vertex keeps its evidence map's histogram in
// ego.FoldScore's layout, and its score is that histogram folded — the
// kernel's fold, so a maintained score is the kernel's to the bit after any
// update stream.
//
// The map-free form (NewMapFreeMaintainer) keeps only each vertex's score
// and t(v) = hist[v][0]: an update keeps t exact and leaves u, v and L
// stale, their score the ceiling d(d−1)/2 − t(v) ≥ CB that readers
// recompute — Algorithm 6's stale flags, for every vertex.
type Maintainer struct {
	g     *graph.DynGraph
	s     []*pairmap.Map   // exact connector counts, nil until v has one; nil in the map-free form
	hist  [][]int64        // hist[v]: [0] adjacent pairs of N(v), [c] pairs with c connectors
	cb    []float64        // cb[v] = ego.FoldScore(d(v), hist[v]), or the exact score of a fresh map-free vertex
	stale []bool           // map-free form: cb[v] is v's ceiling, not its score; nil in the map-holding form
	comm  []int32          // scratch: common neighborhoods
	aux   []int32          // scratch: secondary intersections
	reg   [2]*nbr.Register // scratch: N(u) and N(v) during a repair

	// Dirty-score tracking for copy-on-write snapshot publication: the
	// vertices whose cb actually moved since the last TakeDirtyScores,
	// deduplicated. Every cb mutation goes through refold, so a drain that
	// changed no score publishes no score copies at all.
	dirtyCB  []int32
	dirtySet []bool

	// Stats counts the work done, for the Fig. 8 analysis.
	Stats MaintainerStats
}

// newMaintainer wraps g and its per-vertex evidence, histograms and scores.
func newMaintainer(g *graph.Graph, maps []*pairmap.Map, hist [][]int64, cb []float64) *Maintainer {
	n := g.NumVertices()
	return &Maintainer{
		g: graph.DynFromGraph(g), s: maps, hist: hist, cb: cb,
		reg:      [2]*nbr.Register{nbr.NewRegister(n), nbr.NewRegister(n)},
		dirtySet: make([]bool, n),
	}
}

// refold scores v from its histogram, recording v as dirty when the bits
// move, so the serving layer's chunked copy-on-write score vector copies
// only the chunks that actually changed.
func (m *Maintainer) refold(v int32) {
	cb := ego.FoldScore(m.g.Degree(v), m.hist[v])
	if math.Float64bits(cb) == math.Float64bits(m.cb[v]) {
		return
	}
	m.cb[v] = cb
	m.markDirty(v)
}

// markDirty records v for the next TakeDirtyScores.
func (m *Maintainer) markDirty(v int32) {
	if !m.dirtySet[v] {
		m.dirtySet[v] = true
		m.dirtyCB = append(m.dirtyCB, v)
	}
}

// markStale turns v's score into its ceiling (map-free form); a flag that
// moves is dirty even when the bits stay.
func (m *Maintainer) markStale(v int32) {
	if !m.stale[v] {
		m.stale[v] = true
		m.markDirty(v)
	}
	m.refold(v)
}

// tally adds n pairs to bucket b of v's histogram, growing it as needed.
func (m *Maintainer) tally(v, b int32, n int64) {
	h := m.hist[v]
	if int(b) >= len(h) {
		h = append(h, make([]int64, int(b)+1-len(h))...)
		m.hist[v] = h
	}
	h[b] += n
}

// moveCount moves one non-adjacent pair of GE(v) from `from` to `to`
// connectors. A pair with no connector has no bucket: FoldScore counts it
// through d(d−1)/2.
func (m *Maintainer) moveCount(v, from, to int32) {
	if from > 0 {
		m.tally(v, from, -1)
	}
	if to > 0 {
		m.tally(v, to, 1)
	}
}

// shift adds delta to the connector count of the non-adjacent pair key of
// GE(v), in S_v and in the histogram.
func (m *Maintainer) shift(v int32, key uint64, delta int32) {
	c := m.mapFor(v).Add(key, delta)
	m.moveCount(v, c-delta, c)
}

// TakeDirtyScores returns the vertices whose score or stale flag changed
// since the last call (deduplicated) and resets the tracking. The caller
// owns the returned slice.
func (m *Maintainer) TakeDirtyScores() []int32 {
	out := m.dirtyCB
	for _, v := range out {
		m.dirtySet[v] = false
	}
	m.dirtyCB = nil
	return out
}

// MaintainerStats tallies update work.
type MaintainerStats struct {
	Inserts       int64
	Deletes       int64
	TouchedPairs  int64 // evidence-map entries visited or changed
	AffectedVerts int64 // |{u, v} ∪ L| summed over updates
}

// sweepWorkers is the constructors' sweep width, GOMAXPROCS: the state is
// the same bits at any width, which the tests check through this seam.
var sweepWorkers = func() int { return runtime.GOMAXPROCS(0) }

// NewMaintainer builds the maintainer from a static snapshot, computing all
// ego-betweennesses in one ego.Sweep on up to GOMAXPROCS cores and taking
// ownership of the evidence maps the per-ego kernel emits along the way;
// each ego is one worker's, so the state is the same bits on any number.
func NewMaintainer(g *graph.Graph) *Maintainer {
	n := g.NumVertices()
	cb, maps, hist := make([]float64, n), make([]*pairmap.Map, n), make([][]int64, n)
	ego.Sweep(g, sweepWorkers(), func(v int32, s *ego.Scratch) {
		cb[v], maps[v], hist[v] = ego.EgoBetweennessWithMap(g, v, s)
	}, nil)
	return newMaintainer(g, maps, hist, cb)
}

// NewMapFreeMaintainer builds the map-free form by the same ego.Sweep,
// keeping each vertex's exact score and t(v): every vertex starts fresh.
func NewMapFreeMaintainer(g *graph.Graph) *Maintainer {
	n := g.NumVertices()
	cb, t := make([]float64, n), make([]int64, n)
	ego.Sweep(g, sweepWorkers(), func(v int32, s *ego.Scratch) {
		_, off, adj := s.EgoCSR(g, v)
		cb[v], _ = s.ScoreCSR(off, adj)
		t[v] = int64(len(adj) / 2)
	}, nil)
	return newMapFree(g, cb, t)
}

// newMapFree wraps g, its scores and t in the map-free form, every vertex
// fresh; hist[v] views t[v], so an update allocates nothing.
func newMapFree(g *graph.Graph, cb []float64, t []int64) *Maintainer {
	hist := make([][]int64, len(t))
	for v := range t {
		hist[v] = t[v : v+1 : v+1]
	}
	m := newMaintainer(g, nil, hist, cb)
	m.stale = make([]bool, len(t))
	return m
}

// Graph exposes the maintained graph (read-only use).
func (m *Maintainer) Graph() *graph.DynGraph { return m.g }

// CB returns the current ego-betweenness of v (its ceiling when stale).
func (m *Maintainer) CB(v int32) float64 { return m.cb[v] }

// All returns the current scores, ceilings where stale (shared; read-only).
func (m *Maintainer) All() []float64 { return m.cb }

// Stale returns the map-free form's stale flags (shared slice; read-only),
// nil in the map-holding form.
func (m *Maintainer) Stale() []bool { return m.stale }

// MemoryFootprint returns the approximate heap bytes held by the evidence
// maps, the histograms (slice headers included), the scores and the stale
// flags — the map-free form and LazyTopK hold O(n) scalars. Reported by the
// Fig. 8 experiment.
func (m *Maintainer) MemoryFootprint() int64 {
	var total int64
	for _, s := range m.s {
		if s != nil {
			total += s.MemoryFootprint()
		}
	}
	for _, h := range m.hist {
		total += 24 + int64(cap(h))*8
	}
	return total + int64(len(m.cb))*8 + int64(len(m.stale))
}

// TopK returns the current top-k by CB (by ceiling where stale), sorted descending.
func (m *Maintainer) TopK(k int) []ego.Result {
	return ego.TopKOfScores(m.cb, k)
}

// mapFor returns the evidence map of v, allocating on first touch.
func (m *Maintainer) mapFor(v int32) *pairmap.Map {
	if m.s[v] == nil {
		m.s[v] = pairmap.New()
	}
	return m.s[v]
}

// setCount sets the connector count of the pair key of GE(v) to c, in S_v
// and in the histogram; c = 0 leaves the pair without an entry.
func (m *Maintainer) setCount(v int32, key uint64, c int32) {
	var old int32
	if m.s[v] != nil {
		old, _ = m.s[v].Get(key)
	}
	if c > 0 {
		m.mapFor(v).Set(key, c)
	} else if old > 0 {
		m.s[v].Delete(key)
	}
	m.moveCount(v, old, c)
}

func (m *Maintainer) growTo(n int32) {
	for int32(len(m.cb)) < n {
		m.cb = append(m.cb, 0)
		if m.stale != nil {
			m.stale = append(m.stale, false)
		} else {
			m.s = append(m.s, nil)
		}
		m.hist = append(m.hist, nil)
		m.dirtySet = append(m.dirtySet, false)
	}
}

// InsertEdge performs LocalInsert (Algorithm 4): inserts (u, v) and repairs
// the evidence maps and scores of u, v, and every common neighbor, per
// Lemmas 4-5 (see repair for the map-free form). Unknown endpoints grow the
// vertex set.
func (m *Maintainer) InsertEdge(u, v int32) error {
	if u == v {
		return fmt.Errorf("dynamic: self-loop (%d,%d)", u, v)
	}
	if u < 0 || v < 0 || u == math.MaxInt32 || v == math.MaxInt32 {
		return fmt.Errorf("dynamic: vertex out of range in (%d,%d)", u, v)
	}
	mx := max(u, v) + 1
	if m.g.NumVertices() < mx {
		m.g.EnsureVertices(mx)
	}
	m.growTo(m.g.NumVertices())
	if m.g.HasEdge(u, v) {
		return fmt.Errorf("dynamic: edge (%d,%d) already present", u, v)
	}
	// L before the insert equals L after: w ∈ L is untouched by (u,v).
	m.comm = nbr.CommonInto(m.comm[:0], m.g, u, v)
	if err := m.g.InsertEdge(u, v); err != nil {
		return err
	}
	m.Stats.Inserts++
	m.repair(u, v, m.comm, 1)
	return nil
}

// DeleteEdge performs LocalDelete: removes (u, v) and repairs the evidence
// maps and scores per Lemmas 6-7.
func (m *Maintainer) DeleteEdge(u, v int32) error {
	if u < 0 || v < 0 || u == v || !m.g.HasEdge(u, v) {
		return fmt.Errorf("dynamic: edge (%d,%d) not present", u, v)
	}
	m.comm = nbr.CommonInto(m.comm[:0], m.g, u, v)
	if err := m.g.DeleteEdge(u, v); err != nil {
		return err
	}
	m.Stats.Deletes++
	m.repair(u, v, m.comm, -1)
	return nil
}

// repair is the one walk of LocalInsert (delta = +1, Lemmas 4-5) and
// LocalDelete (delta = −1, Lemmas 6-7), run after the edge (u, v) entered or
// left the graph, with l = L = N(u) ∩ N(v). Only S_u, S_v and S_w, w ∈ L,
// change (Observation 1): every affected pair moves between histogram
// buckets, and the walk ends by refolding exactly those vertices. No graph
// read below depends on the edge (u, v) itself, so one walk serves both
// directions.
//
// The map-free form moves only t: the |L| pairs (other endpoint, w ∈ L)
// turn adjacent in GE(u) and GE(v) with an insert, and (u, v) in each
// GE(w); a delete undoes both. Then u, v and L turn stale.
func (m *Maintainer) repair(u, v int32, l []int32, delta int32) {
	m.Stats.AffectedVerts += int64(len(l)) + 2
	if m.stale != nil {
		m.tally(u, 0, int64(delta)*int64(len(l)))
		m.tally(v, 0, int64(delta)*int64(len(l)))
		m.markStale(u)
		m.markStale(v)
		for _, w := range l {
			m.tally(w, 0, int64(delta))
			m.markStale(w)
		}
		return
	}

	// Lemmas 4 and 6, part 1: non-adjacent pairs inside L gain or lose a
	// connector — v in GE(u), u in GE(v).
	for i, x := range l {
		for _, y := range l[i+1:] {
			if m.g.HasEdge(x, y) {
				continue
			}
			key := pairmap.Key(x, y)
			m.shift(u, key, delta)
			m.shift(v, key, delta)
			m.Stats.TouchedPairs += 2
		}
	}
	// Part 2: the pairs (v, x) enter or leave GE(u), and (u, x) GE(v).
	m.endpointPairs(u, v, l, delta)
	m.endpointPairs(v, u, l, delta)

	// Lemmas 5 and 7: in GE(w), w ∈ L, the pair (u, v) turns adjacent or
	// non-adjacent, and pairs (u, x) and (v, x) gain or lose the connector
	// v or u. N(u) and N(v) are marked once into the two registers, so each
	// of the 2|L| scans probes in O(d(w)) instead of re-merging an endpoint's
	// list.
	if len(l) > 0 {
		nu, nv := m.mark(0, u), m.mark(1, v)
		keyUV := pairmap.Key(u, v)
		for _, w := range l {
			var c int32 // connectors of (u, v) in GE(w); none once adjacent
			if delta < 0 {
				c = int32(nbr.IntersectCount(l, m.g.Neighbors(w)))
			}
			m.setCount(w, keyUV, c)
			m.tally(w, 0, int64(delta))
			m.Stats.TouchedPairs++
			m.commonShift(w, u, nv, delta)
			m.commonShift(w, v, nu, delta)
		}
		nu.Unmark()
		nv.Unmark()
	}

	m.refold(u)
	m.refold(v)
	for _, w := range l {
		m.refold(w)
	}
}

// mark marks N(b) into the maintainer's i-th register and returns it; the
// caller unmarks it.
func (m *Maintainer) mark(i int, b int32) *nbr.Register {
	r := m.reg[i]
	r.Ensure(m.g.NumVertices())
	r.Mark(m.g.Neighbors(b))
	return r
}

// endpointPairs handles the pairs (other, x), x ∈ N(p), that enter GE(p)
// (delta = +1) or leave it (delta = −1) with the edge (p, other). For x ∈ L
// the pair is adjacent: the |L| of them move bucket 0 at once, and a merge
// cursor skips them (L ⊆ N(p), both ascending). Otherwise it is
// non-adjacent, with the connector count an insert counts and a delete
// reads back. Its connectors are the w ∈ N(p) \ {other, x} adjacent to both
// other and x; with the edge in place N(p) ∩ N(other) is exactly L (other
// is not its own neighbor), so the count is |N(x) ∩ L|.
func (m *Maintainer) endpointPairs(p, other int32, l []int32, delta int32) {
	if len(l) > 0 {
		m.tally(p, 0, int64(delta)*int64(len(l)))
	}
	j := 0
	for _, x := range m.g.Neighbors(p) {
		if x == other {
			continue
		}
		key := pairmap.Key(other, x)
		m.Stats.TouchedPairs++
		if j < len(l) && l[j] == x {
			j++
			continue
		}
		var c int32
		if delta > 0 {
			c = int32(nbr.IntersectCount(l, m.g.Neighbors(x)))
		}
		m.setCount(p, key, c)
	}
}

// commonShift applies, for common neighbor w, the Lemma 5 (delta = +1) or
// Lemma 7 (delta = −1) term: every pair (a, x) with x ∈ N(w) ∩ N(b), x ≠ a,
// (a,x) ∉ E gains or loses the connector b (where {a, b} = {u, v}). nb holds
// N(b) marked; its probe emits the intersection the merge kernel would.
func (m *Maintainer) commonShift(w, a int32, nb *nbr.Register, delta int32) {
	m.aux = nb.IntersectInto(m.aux[:0], m.g.Neighbors(w))
	for _, x := range m.aux {
		if x == a || m.g.HasEdge(a, x) {
			continue
		}
		m.shift(w, pairmap.Key(a, x), delta)
		m.Stats.TouchedPairs++
	}
}
