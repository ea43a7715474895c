package dynamic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/parallel"
)

// LazyTopK maintains the top-k ego-betweenness result set under edge updates
// without maintaining evidence maps (the paper's LazyInsert / LazyDelete,
// Algorithm 6). Every vertex carries a cached score and a staleness flag FG;
// a vertex is recomputed from scratch only when it could change the top-k.
//
// Invariants (the corrected version of the paper's scheme — DESIGN.md §4):
//
//   - a fresh (FG=false) cached score is the exact CB;
//   - a stale non-member's cached score is an upper bound of its true CB
//     (so the max-heap of candidates can soundly skip everything below the
//     current k-th score);
//   - a stale member's cached score is a lower bound of its true CB (only
//     deletions leave members stale, and deletions only increase a common
//     neighbor's CB), so min-over-members stays sound for pruning.
type LazyTopK struct {
	g       *graph.DynGraph
	k       int
	cached  []float64
	stale   []bool
	inR     []bool
	members []int32
	heap    *lazyHeap
	scratch *ego.Scratch
	comm    []int32 // scratch: common neighborhoods of the updated edge

	// Stats tallies the laziness at work, for the Fig. 8 analysis.
	Stats LazyStats
}

// LazyStats counts what the lazy maintainer actually did.
type LazyStats struct {
	Inserts     int64
	Deletes     int64
	Recomputed  int64 // exact per-vertex recomputations
	Swaps       int64 // membership changes of R
	StaleMarked int64 // vertices handled by only flipping FG
}

// lazyHeap is a max-heap over (vertex, cachedScore) with lazy invalidation:
// superseded entries are recognized by a per-vertex version counter and
// discarded on pop.
type lazyHeap struct {
	items []lazyItem
	ver   []int32
}

type lazyItem struct {
	v     int32
	score float64
	ver   int32
}

func (h *lazyHeap) push(v int32, score float64) {
	h.ver[v]++
	h.items = append(h.items, lazyItem{v: v, score: score, ver: h.ver[v]})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(p, i) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// less orders the heap by the result order: the higher score pops first,
// and among equal scores the smaller id.
func (h *lazyHeap) less(i, j int) bool {
	if h.items[i].score != h.items[j].score {
		return h.items[i].score < h.items[j].score
	}
	return h.items[i].v > h.items[j].v
}

func (h *lazyHeap) pop() (lazyItem, bool) {
	for len(h.items) > 0 {
		top := h.items[0]
		last := len(h.items) - 1
		h.items[0] = h.items[last]
		h.items = h.items[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < last && h.less(big, l) {
				big = l
			}
			if r < last && h.less(big, r) {
				big = r
			}
			if big == i {
				break
			}
			h.items[i], h.items[big] = h.items[big], h.items[i]
			i = big
		}
		if top.ver == h.ver[top.v] {
			return top, true
		}
	}
	return lazyItem{}, false
}

// reinsert puts a still-valid popped item back without bumping its version.
func (h *lazyHeap) reinsert(item lazyItem) {
	h.items = append(h.items, item)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(p, i) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *lazyHeap) grow(n int32) {
	for int32(len(h.ver)) < n {
		h.ver = append(h.ver, 0)
	}
}

// NewLazyTopK initializes the maintainer: all scores computed exactly once
// by parallel.ComputeAll's VertexPEBW sweep on up to GOMAXPROCS cores (the
// same bits on any number), the k best become the result set R, everything
// else enters the candidate heap (the paper's sorted list H). k ≤ 0 keeps R
// empty: updates still maintain the graph and Results returns none.
func NewLazyTopK(g *graph.Graph, k int) *LazyTopK {
	cb, _ := parallel.ComputeAll(g, sweepWorkers(), parallel.VertexPEBW)
	n := g.NumVertices()
	lt := &LazyTopK{
		g: graph.DynFromGraph(g), k: max(k, 0),
		cached:  cb,
		stale:   make([]bool, n),
		inR:     make([]bool, n),
		heap:    &lazyHeap{ver: make([]int32, n)},
		scratch: ego.NewScratch(n),
	}
	for v := int32(0); v < n; v++ {
		lt.heap.push(v, cb[v])
	}
	lt.rebalance() // fills R with the k first under the result order
	return lt
}

// K returns the configured k (0 when built with k ≤ 0).
func (lt *LazyTopK) K() int { return lt.k }

// MemoryFootprint returns the approximate heap bytes of the lazy state:
// O(n) scalars plus the candidate heap — no per-vertex evidence maps, the
// memory advantage over the exact Maintainer.
func (lt *LazyTopK) MemoryFootprint() int64 {
	return int64(len(lt.cached))*8 + int64(len(lt.stale)) + int64(len(lt.inR)) +
		int64(len(lt.members))*4 + int64(len(lt.heap.items))*24 + int64(len(lt.heap.ver))*4
}

// refresh recomputes v exactly and republishes it to the candidate heap when
// it is not a member.
func (lt *LazyTopK) refresh(v int32) {
	lt.cached[v] = ego.EgoBetweenness(lt.g, v, lt.scratch)
	lt.stale[v] = false
	lt.Stats.Recomputed++
	if !lt.inR[v] {
		lt.heap.push(v, lt.cached[v])
	}
}

// minMember returns the worst member under the result order — the smallest
// exact CB, and among equal ones the largest id — refreshing stale members
// as needed (stale member scores are lower bounds, so a fresh worst is
// genuinely worst; see the type comment), or −1 for an empty R, which
// rebalance never asks about: it fills R before it compares.
func (lt *LazyTopK) minMember() (int32, float64) {
	for {
		best := int32(-1)
		bestVal := 0.0
		for _, v := range lt.members {
			if best < 0 || lt.cached[v] < bestVal || (lt.cached[v] == bestVal && v > best) {
				best, bestVal = v, lt.cached[v]
			}
		}
		if best < 0 {
			return -1, 0
		}
		if !lt.stale[best] {
			return best, bestVal
		}
		lt.refresh(best)
	}
}

// rebalance restores the top-k property: while the best candidate beats the
// worst member under the result order (score desc, id asc) — on its upper
// bound — resolve it (refresh if stale, swap if truly better). The heap pops
// in that same order, so R ends as the k first vertices under it, the list
// every exact path returns. Mirrors Algorithm 6 lines 4-8 with the
// termination fix.
func (lt *LazyTopK) rebalance() {
	for lt.k > 0 { // k ≤ 0: R stays empty, with no member to fill or to beat
		// Fill R first if it is short (k larger than it used to be, or
		// vertex growth while R was underfull).
		if len(lt.members) < lt.k {
			item, ok := lt.heap.pop()
			if !ok {
				return
			}
			if lt.stale[item.v] {
				lt.refresh(item.v)
				continue
			}
			lt.inR[item.v] = true
			lt.members = append(lt.members, item.v)
			continue
		}
		item, ok := lt.heap.pop()
		if !ok {
			return
		}
		y, worst := lt.minMember()
		if item.score < worst || (item.score == worst && item.v > y) {
			// Upper bound cannot beat the k-th member: put the entry
			// back untouched and stop.
			lt.heap.reinsert(item)
			return
		}
		if lt.stale[item.v] {
			lt.refresh(item.v)
			continue
		}
		// Exact candidate beats the k-th member: swap.
		lt.swap(y, item.v)
	}
}

// swap demotes member out and promotes candidate in.
func (lt *LazyTopK) swap(out, in int32) {
	lt.inR[out] = false
	lt.inR[in] = true
	for i, v := range lt.members {
		if v == out {
			lt.members[i] = in
			break
		}
	}
	lt.heap.push(out, lt.cached[out])
	lt.Stats.Swaps++
}

func (lt *LazyTopK) growTo(n int32) {
	for int32(len(lt.cached)) < n {
		v := int32(len(lt.cached))
		lt.cached = append(lt.cached, 0)
		lt.stale = append(lt.stale, false)
		lt.inR = append(lt.inR, false)
		lt.heap.grow(v + 1)
		lt.heap.push(v, 0)
	}
}

// InsertEdge performs LazyInsert. Endpoint CBs can move either way, so a
// member endpoint is recomputed immediately and a non-member endpoint's
// cached score is raised to its degree bound and flagged stale. A common
// neighbor's CB only decreases: members are recomputed (they may fall out),
// non-members just get flagged (their old score stays a valid upper bound) —
// that is the lazy win.
func (lt *LazyTopK) InsertEdge(u, v int32) error {
	if u == v || u < 0 || v < 0 || u == math.MaxInt32 || v == math.MaxInt32 {
		return fmt.Errorf("dynamic: invalid edge (%d,%d)", u, v)
	}
	lt.g.EnsureVertices(max(u, v) + 1)
	lt.growTo(lt.g.NumVertices())
	if lt.g.HasEdge(u, v) {
		return fmt.Errorf("dynamic: edge (%d,%d) already present", u, v)
	}
	lt.comm = nbr.CommonInto(lt.comm[:0], lt.g, u, v)
	comm := lt.comm
	if err := lt.g.InsertEdge(u, v); err != nil {
		return err
	}
	lt.Stats.Inserts++
	lt.touchEndpoint(u)
	lt.touchEndpoint(v)
	for _, w := range comm {
		if lt.inR[w] {
			lt.refresh(w)
		} else {
			lt.stale[w] = true // score only decreased; cached stays an upper bound
			lt.Stats.StaleMarked++
		}
	}
	lt.rebalance()
	return nil
}

// DeleteEdge performs LazyDelete. A common neighbor's CB only increases:
// members stay members (flag only — their cached score becomes a lower
// bound), non-members get their cached score raised to the degree bound so
// the candidate heap can surface them if relevant.
func (lt *LazyTopK) DeleteEdge(u, v int32) error {
	if u < 0 || v < 0 || u == v || !lt.g.HasEdge(u, v) {
		return fmt.Errorf("dynamic: edge (%d,%d) not present", u, v)
	}
	lt.comm = nbr.CommonInto(lt.comm[:0], lt.g, u, v)
	comm := lt.comm
	if err := lt.g.DeleteEdge(u, v); err != nil {
		return err
	}
	lt.Stats.Deletes++
	lt.touchEndpoint(u)
	lt.touchEndpoint(v)
	for _, w := range comm {
		if lt.inR[w] {
			lt.stale[w] = true // stays in R; cached is now a lower bound
			lt.Stats.StaleMarked++
		} else {
			lt.raiseToBound(w)
		}
	}
	lt.rebalance()
	return nil
}

// touchEndpoint handles u or v of an update: the CB movement direction is
// unknown, so members are recomputed now and non-members get the Lemma 2
// degree bound as their cached upper bound.
func (lt *LazyTopK) touchEndpoint(p int32) {
	if lt.inR[p] {
		lt.refresh(p)
	} else {
		lt.raiseToBound(p)
	}
}

// raiseToBound marks a non-member stale with its cached score set to the
// static upper bound ub(p) = d(d−1)/2. The true CB may have moved in either
// direction, and only the degree bound is guaranteed to dominate it, so the
// cached value must become exactly that bound to keep the candidate-heap
// invariant (stale non-member cache ≥ true CB).
func (lt *LazyTopK) raiseToBound(p int32) {
	lt.stale[p] = true
	lt.cached[p] = ego.StaticUB(lt.g.Degree(p))
	lt.heap.push(p, lt.cached[p])
	lt.Stats.StaleMarked++
}

// Results returns the current top-k exactly, sorted by descending CB (ties
// by ascending id). Stale members are refreshed first, then the set is
// rebalanced until stable.
func (lt *LazyTopK) Results() []ego.Result {
	for _, v := range append([]int32(nil), lt.members...) {
		if lt.stale[v] {
			lt.refresh(v)
		}
	}
	lt.rebalance()
	out := make([]ego.Result, len(lt.members))
	for i, v := range lt.members {
		out[i] = ego.Result{V: v, CB: lt.cached[v]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CB != out[j].CB {
			return out[i].CB > out[j].CB
		}
		return out[i].V < out[j].V
	})
	return out
}
