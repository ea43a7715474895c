package dynamic

import (
	"fmt"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

// Maintainer keeps exact ego-betweennesses for every vertex under edge
// updates (the paper's LocalInsert / LocalDelete).
type Maintainer struct {
	g    *graph.DynGraph
	s    []*pairmap.Map // exact evidence maps, lazily allocated
	cb   []float64
	comm []int32       // scratch: common neighborhoods
	aux  []int32       // scratch: secondary intersections
	reg  *nbr.Register // scratch: L-membership bitset for endpoint scans

	// Dirty-score tracking for copy-on-write snapshot publication: the
	// vertices whose cb actually moved since the last TakeDirtyScores,
	// deduplicated. Every cb mutation goes through adjust, so a drain that
	// changed no score publishes no score copies at all.
	dirtyCB  []int32
	dirtySet []bool

	// Stats counts the work done, for the Fig. 8 analysis.
	Stats MaintainerStats
}

// adjust applies a delta to v's maintained score, recording v as dirty so
// the serving layer's chunked copy-on-write score vector copies only the
// chunks that actually changed. A zero delta is a no-op.
func (m *Maintainer) adjust(v int32, d float64) {
	if d == 0 {
		return
	}
	m.cb[v] += d
	if !m.dirtySet[v] {
		m.dirtySet[v] = true
		m.dirtyCB = append(m.dirtyCB, v)
	}
}

// TakeDirtyScores returns the vertices whose maintained score changed since
// the last call (deduplicated) and resets the tracking. The caller owns the
// returned slice.
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

// NewMaintainer builds the maintainer from a static snapshot, computing all
// ego-betweennesses and taking ownership of the evidence maps the per-ego
// kernel emits along the way.
func NewMaintainer(g *graph.Graph) *Maintainer { return NewMaintainerParallel(g, 1) }

// NewMaintainerParallel is NewMaintainer with the initial computation spread
// over `workers` goroutines (ego.Sweep); it starts bit-identical to the
// sequential construction, maps included.
func NewMaintainerParallel(g *graph.Graph, workers int) *Maintainer {
	n := g.NumVertices()
	cb, maps := make([]float64, n), make([]*pairmap.Map, n)
	ego.Sweep(g, workers, func(v int32, s *ego.Scratch) {
		cb[v], maps[v] = ego.EgoBetweennessWithMap(g, v, s)
	}, nil)
	return &Maintainer{
		g: graph.DynFromGraph(g), s: maps, cb: cb,
		reg:      nbr.NewRegister(n),
		dirtySet: make([]bool, n),
	}
}

// Graph exposes the maintained graph (read-only use).
func (m *Maintainer) Graph() *graph.DynGraph { return m.g }

// CB returns the current exact ego-betweenness of v.
func (m *Maintainer) CB(v int32) float64 { return m.cb[v] }

// All returns the current exact ego-betweennesses (shared slice; read-only).
func (m *Maintainer) All() []float64 { return m.cb }

// MemoryFootprint returns the approximate heap bytes held by the evidence
// maps — the price of exact all-vertices maintenance that LazyTopK avoids
// (its footprint is O(n) scalars). Reported by the Fig. 8 experiment.
func (m *Maintainer) MemoryFootprint() int64 {
	var total int64
	for _, s := range m.s {
		if s != nil {
			total += s.MemoryFootprint()
		}
	}
	return total + int64(len(m.cb))*8
}

// TopK returns the current top-k by exact CB, sorted descending.
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

// getCount returns the connector count stored for key in S_v, treating a
// missing entry (or a never-allocated map) as zero.
func (m *Maintainer) getCount(v int32, key uint64) int32 {
	if m.s[v] == nil {
		return 0
	}
	c, _ := m.s[v].Get(key)
	return c
}

func (m *Maintainer) growTo(n int32) {
	for int32(len(m.cb)) < n {
		m.cb = append(m.cb, 0)
		m.s = append(m.s, nil)
		m.dirtySet = append(m.dirtySet, false)
	}
}

// InsertEdge performs LocalInsert (Algorithm 4): inserts (u, v) and repairs
// CB and the evidence maps of u, v, and every common neighbor, per
// Lemmas 4-5. Unknown endpoints grow the vertex set.
func (m *Maintainer) InsertEdge(u, v int32) error {
	if u == v {
		return fmt.Errorf("dynamic: self-loop (%d,%d)", u, v)
	}
	if u < 0 || v < 0 {
		return fmt.Errorf("dynamic: negative vertex in (%d,%d)", u, v)
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
	l := append([]int32(nil), m.comm...)
	if err := m.g.InsertEdge(u, v); err != nil {
		return err
	}
	m.Stats.Inserts++
	m.Stats.AffectedVerts += int64(len(l)) + 2

	// Lemma 4, part 1: pairs inside L gain the new connector (v for GE(u),
	// u for GE(v)).
	for i := 0; i < len(l); i++ {
		for j := i + 1; j < len(l); j++ {
			x, y := l[i], l[j]
			if m.g.HasEdge(x, y) {
				continue
			}
			key := pairmap.Key(x, y)
			cu := m.mapFor(u).Add(key, 1)
			m.adjust(u, 1/float64(cu+1)-1/float64(cu))
			cv := m.mapFor(v).Add(key, 1)
			m.adjust(v, 1/float64(cv+1)-1/float64(cv))
			m.Stats.TouchedPairs += 2
		}
	}
	// Lemma 4, part 2: brand-new pairs (v, x) in GE(u) and (u, x) in GE(v).
	m.insertEndpointPairs(u, v, l)
	m.insertEndpointPairs(v, u, l)

	// Lemma 5: common neighbors w ∈ L. A hub endpoint's neighborhood is
	// marked once into a pooled register, so each of the |L| scans against
	// it probes in O(d(w)) instead of re-merging the hub list.
	regU, regV := m.hubRegister(u, len(l)), m.hubRegister(v, len(l))
	for _, w := range l {
		keyUV := pairmap.Key(u, v)
		old := m.getCount(w, keyUV) // exact connector count of (u,v) in GE(w)
		m.adjust(w, -1/float64(old+1))
		m.mapFor(w).SetMarker(keyUV) // the pair is adjacent now
		m.Stats.TouchedPairs++
		m.commonGains(w, u, v, regV) // pairs (u,x) gain connector v
		m.commonGains(w, v, u, regU) // pairs (v,x) gain connector u
	}
	m.releaseHubRegisters(regU, regV)
	return nil
}

// hubRegister returns a pooled register with N(b) marked when b is hub-sized
// (per nbr.ChooseHub) and its neighborhood will be scanned against at least
// `scans` times — the break-even for paying the one-time mark. Returns nil
// otherwise; a non-nil register must go back through releaseHubRegisters.
func (m *Maintainer) hubRegister(b int32, scans int) *nbr.Register {
	nb := m.g.Neighbors(b)
	if scans < 2 || nbr.ChooseHub(len(nb), 0) != nbr.StrategyBitset {
		return nil
	}
	r := nbr.AcquireRegister(m.g.NumVertices())
	r.Mark(nb)
	return r
}

func (m *Maintainer) releaseHubRegisters(regs ...*nbr.Register) {
	for _, r := range regs {
		if r != nil {
			nbr.ReleaseRegister(r)
		}
	}
}

// insertEndpointPairs handles the new pairs (other, x) that appear in GE(p)
// when edge (p, other) is inserted: x ∈ L becomes an adjacent pair (marker),
// x ∉ L gets a fresh connector count. L-membership is tested against the
// maintainer's bitset register, marked once per call.
func (m *Maintainer) insertEndpointPairs(p, other int32, l []int32) {
	m.reg.Ensure(m.g.NumVertices())
	m.reg.Mark(l)
	defer m.reg.Unmark()
	for _, x := range m.g.Neighbors(p) {
		if x == other {
			continue
		}
		key := pairmap.Key(other, x)
		if m.reg.Contains(x) {
			m.mapFor(p).SetMarker(key)
			m.Stats.TouchedPairs++
			continue
		}
		// Connectors of (other, x) in GE(p): w ∈ N(p) adjacent to both.
		c := int32(0)
		m.aux = nbr.CommonInto(m.aux[:0], m.g, p, x)
		for _, w := range m.aux {
			if w != other && m.g.HasEdge(w, other) {
				c++
			}
		}
		if c > 0 {
			m.mapFor(p).Set(key, c)
		}
		m.adjust(p, 1/float64(c+1))
		m.Stats.TouchedPairs++
	}
}

// commonGains applies, for common neighbor w, the Lemma 5 term: every pair
// (a, x) with x ∈ N(w) ∩ N(b), x ≠ a, (a,x) ∉ E gains the connector b
// (where {a, b} = {u, v}). regB, when non-nil, holds N(b) pre-marked; the
// register probe emits the identical ascending intersection the merge
// kernel would, so routing never changes any float operation.
func (m *Maintainer) commonGains(w, a, b int32, regB *nbr.Register) {
	if regB != nil {
		m.aux = regB.IntersectInto(m.aux[:0], m.g.Neighbors(w))
	} else {
		m.aux = nbr.CommonInto(m.aux[:0], m.g, w, b)
	}
	for _, x := range m.aux {
		if x == a || m.g.HasEdge(a, x) {
			continue
		}
		c := m.mapFor(w).Add(pairmap.Key(a, x), 1)
		m.adjust(w, 1/float64(c+1)-1/float64(c))
		m.Stats.TouchedPairs++
	}
}

// DeleteEdge performs LocalDelete: removes (u, v) and repairs CB and the
// evidence maps per Lemmas 6-7.
func (m *Maintainer) DeleteEdge(u, v int32) error {
	if u < 0 || v < 0 || u == v || !m.g.HasEdge(u, v) {
		return fmt.Errorf("dynamic: edge (%d,%d) not present", u, v)
	}
	m.comm = nbr.CommonInto(m.comm[:0], m.g, u, v)
	l := append([]int32(nil), m.comm...)
	m.Stats.Deletes++
	m.Stats.AffectedVerts += int64(len(l)) + 2

	// Lemma 6, part 1: pairs inside L lose a connector in GE(u) and GE(v).
	for i := 0; i < len(l); i++ {
		for j := i + 1; j < len(l); j++ {
			x, y := l[i], l[j]
			if m.g.HasEdge(x, y) {
				continue
			}
			key := pairmap.Key(x, y)
			cu := m.getCount(u, key) // ≥ 1: v is a connector
			m.adjust(u, 1/float64(cu)-1/float64(cu+1))
			m.mapFor(u).Add(key, -1)
			cv := m.getCount(v, key)
			m.adjust(v, 1/float64(cv)-1/float64(cv+1))
			m.mapFor(v).Add(key, -1)
			m.Stats.TouchedPairs += 2
		}
	}
	// Lemma 6, part 2: pairs (v, x) leave GE(u), and (u, x) leave GE(v).
	m.deleteEndpointPairs(u, v, l)
	m.deleteEndpointPairs(v, u, l)

	// Lemma 7: common neighbors w ∈ L, hub endpoints pre-marked as in
	// Lemma 5.
	regU, regV := m.hubRegister(u, len(l)), m.hubRegister(v, len(l))
	for _, w := range l {
		// Pair (u, v) becomes non-adjacent in GE(w); its connector count
		// is |L ∩ N(w)|.
		c := int32(nbr.IntersectCount(l, m.g.Neighbors(w)))
		keyUV := pairmap.Key(u, v)
		if c > 0 {
			m.mapFor(w).Set(keyUV, c)
		} else {
			m.mapFor(w).Delete(keyUV)
		}
		m.adjust(w, 1/float64(c+1))
		m.Stats.TouchedPairs++
		m.commonLosses(w, u, v, regV) // pairs (u,x) lose connector v
		m.commonLosses(w, v, u, regU) // pairs (v,x) lose connector u
	}
	m.releaseHubRegisters(regU, regV)
	return m.g.DeleteEdge(u, v)
}

// deleteEndpointPairs removes from GE(p) every pair (other, x) when edge
// (p, other) is deleted. L-membership is tested against the maintainer's
// bitset register, marked once per call.
func (m *Maintainer) deleteEndpointPairs(p, other int32, l []int32) {
	m.reg.Ensure(m.g.NumVertices())
	m.reg.Mark(l)
	defer m.reg.Unmark()
	for _, x := range m.g.Neighbors(p) {
		if x == other {
			continue
		}
		key := pairmap.Key(other, x)
		if m.reg.Contains(x) {
			// Adjacent pair: marker entry, contribution was 0.
			m.mapFor(p).Delete(key)
		} else {
			c := m.getCount(p, key)
			m.adjust(p, -1/float64(c+1))
			if c > 0 {
				m.s[p].Delete(key)
			}
		}
		m.Stats.TouchedPairs++
	}
}

// commonLosses applies, for common neighbor w, the Lemma 7 term: every pair
// (a, x) with x ∈ N(w) ∩ N(b), x ≠ a, (a,x) ∉ E loses the connector b.
// regB as in commonGains.
func (m *Maintainer) commonLosses(w, a, b int32, regB *nbr.Register) {
	if regB != nil {
		m.aux = regB.IntersectInto(m.aux[:0], m.g.Neighbors(w))
	} else {
		m.aux = nbr.CommonInto(m.aux[:0], m.g, w, b)
	}
	for _, x := range m.aux {
		if x == a || m.g.HasEdge(a, x) {
			continue
		}
		key := pairmap.Key(a, x)
		c := m.getCount(w, key) // ≥ 1: b was a connector
		m.adjust(w, 1/float64(c)-1/float64(c+1))
		m.mapFor(w).Add(key, -1)
		m.Stats.TouchedPairs++
	}
}
