package ego

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/topk"
)

// SearchStats reports what a top-k search did, feeding Table II (exact
// computations) and the pruning ablations.
type SearchStats struct {
	Computed       int64 // vertices whose CB was computed exactly
	Pruned         int64 // vertices discarded by a bound without computation
	Reinserted     int64 // OptBSearch: vertices pushed back with a tighter bound
	BoundRefreshes int64 // OptBSearch: dynamic bound evaluations
	EdgesProcessed int64 // OptBSearch: ego-internal edges (triangles) walked for the bound
	CreditOps      int64 // OptBSearch: increments of the adjacent-pair counters
}

// BaseBSearch is Algorithm 1: top-k ego-betweenness search under the static
// Lemma 2 bound. Vertices are visited in the total order ≺ (non-increasing
// static bound, ties by descending id) and the search stops as soon as the
// k-th best exact score dominates the next static bound. Results are sorted
// by descending CB, ties by ascending vertex id; k ≤ 0 selects nothing.
//
// It is the search loop (searcher) without the dynamic bound: every popped
// candidate that could still enter the result set is scored by the dense
// per-ego kernel (EgoBetweenness), which needs no cross-vertex evidence.
// Kernels of the next candidates run ahead on up to GOMAXPROCS cores.
func BaseBSearch(g graph.View, k int) ([]Result, SearchStats) {
	res, st, _ := search(context.Background(), g, k, 1, nil, false, nil, runtime.GOMAXPROCS(0), specPrice)
	return res, st
}

// DefaultTheta is the paper's default gradient ratio θ for OptBSearch.
const DefaultTheta = 1.05

// OptBSearch is Algorithm 2: top-k search under the dynamic Lemma 3 bound.
// Candidates live in a max-heap keyed by their last-known bound. On pop the
// bound is re-evaluated against the "identified information" accumulated so
// far — here the triangles seen while scoring earlier vertices, see
// searcher; if it has dropped by more than the gradient ratio θ ≥ 1 the
// vertex is pushed back (or pruned when it can no longer reach the top-k)
// instead of being computed. θ trades reinsertions against exact
// computations; the paper's default is DefaultTheta, and θ below 1 or NaN
// means 1.
func OptBSearch(g graph.View, k int, theta float64) ([]Result, SearchStats) {
	return OptBSearchLabeled(g, k, theta, nil)
}

// OptBSearchLabeled is OptBSearch on an internally relabeled graph whose
// external labels are ext (ext[v] = external id of internal vertex v, as in
// graph.Relabeled.Ext). The candidate heap pops score ties by external label
// and results carry external ids, so the whole search trajectory — and the
// output — is bitwise identical to OptBSearch on the unrelabeled graph. A
// nil ext means identity labels. Nothing serves through it: it is the
// library half of the degree-relabeling layout experiment (DESIGN.md §12)
// that the benchmark's ego.opt.relabeled_k100_ms keeps measuring.
func OptBSearchLabeled(g graph.View, k int, theta float64, ext []int32) ([]Result, SearchStats) {
	res, st, _ := search(context.Background(), g, k, theta, ext, true, nil, runtime.GOMAXPROCS(0), specPrice)
	return res, st
}

// SearchSeeded is the searcher over published scores, exact except where
// stale(v) marks an upper bound: exact ones enter R with no kernel, H holds
// the stale ones under their bounds, and a popped stale candidate runs the
// kernel on g, speculation included — TopKExact's answer to the bit, with
// Computed counting the stale kernels. It checks ctx once per candidate, and
// once ctx is done it ends its helpers. A cancelled search returns ctx.Err()
// without results; one whose deadline passed returns the certified prefix
// of the answer with a *Partial error, or the whole answer and no error
// when nothing left undecided could still enter it.
func SearchSeeded(ctx context.Context, g graph.View, k int, score func(int32) float64, stale func(int32) bool) ([]Result, SearchStats, error) {
	return search(ctx, g, k, 1, nil, false, &seed{score, stale}, runtime.GOMAXPROCS(0), specPrice)
}

// Partial is the error of a search its deadline stopped. The results
// returned with it are the certified prefix of the answer: the members of R
// that rank strictly above Bound, the largest bound left in H, which caps
// every score outside the prefix — so they are TopKExact's first results,
// ids and bits. It unwraps to context.DeadlineExceeded.
type Partial struct{ Bound float64 }

func (p *Partial) Error() string {
	return fmt.Sprintf("ego: search deadline exceeded; answer certified above %v", p.Bound)
}

func (p *Partial) Unwrap() error { return context.DeadlineExceeded }

// seed is a seeded search's published scores.
type seed struct {
	score func(int32) float64
	stale func(int32) bool
}

// search runs the searcher to its end, or until ctx is done, running ahead
// on `workers` helpers the kernels of candidates whose ego-build price
// reaches minPrice. The answer and the SearchStats are the same at every
// workers and minPrice. θ below 1 is 1, and so is NaN, which max(theta, 1)
// would pass through. A k beyond n selects what k = n does, so R is never
// sized past n. A non-nil sd seeds H (SearchSeeded). A done ctx ends the
// search as SearchSeeded documents.
func search(ctx context.Context, g graph.View, k int, theta float64, ext []int32, dynamic bool, sd *seed, workers int, minPrice int64) ([]Result, SearchStats, error) {
	k = min(k, int(g.NumVertices()))
	if k < 1 {
		return []Result{}, SearchStats{}, nil
	}
	if !(theta >= 1) {
		theta = 1
	}
	q := newSearcher(g, k, theta, ext, dynamic, sd, workers, minPrice)
	for {
		if err := ctx.Err(); err != nil {
			q.sp.close()
			if errors.Is(err, context.DeadlineExceeded) {
				return q.prefix()
			}
			return nil, q.st, err
		}
		if !q.step() {
			return toResultsLabeled(q.r, q.ext), q.st, nil
		}
	}
}

// prefix returns what a stopped search has certified: R's members above
// the largest bound left in H (every member when H is empty), with a
// *Partial error unless they already make up the whole answer.
func (q *searcher) prefix() ([]Result, SearchStats, error) {
	res := toResultsLabeled(q.r, q.ext)
	bound := math.Inf(-1)
	if q.h.Len() > 0 {
		bound = q.h.Top(nil, 1)[0].Score
	}
	n := 0
	for n < len(res) && res[n].CB > bound {
		n++
	}
	if n == len(res) && q.r.Full() {
		return res, q.st, nil
	}
	return res[:n], q.st, &Partial{Bound: bound}
}

// specPrice is the ego-build price Σ_{v∈N(p)} d(v) — the first term of the
// kernel's cost, read in O(d) — from which a candidate's kernel is handed to
// a helper; cheaper ones cost less than the handoff and run inline. It
// decides where a kernel runs, never the answer (DESIGN.md §3 has the
// measurements behind it).
const specPrice = 4000

// slotsPerHelper sizes the held results: those of the candidates next in
// pop order, and those of candidates the loop deferred after their kernel
// had run, which wait in their slot for the candidate's next pop.
const slotsPerHelper = 4

// searcher is the one loop behind both searches: a candidate heap H keyed by
// upper bound, the result set R, and one Scratch for the exact scores. Every
// vertex starts in H under the static bound d(d−1)/2 (seeded: see newSearcher);
// step pops the largest.
//
// With dynamic set, t[v] counts the adjacent neighbor pairs of v identified
// so far, and the Lemma 3 bound is ũb(v) = d(d−1)/2 − t[v]: every pair of
// N(v) contributes at most 1 to CB(v) and an adjacent pair contributes 0.
// This is Lemma 3 restricted to markers — the part of the identified
// information that costs nothing, because the ego CSR the kernel builds for
// a computed vertex p lists every triangle {p, a, b} as an ego-internal
// edge (a, b). The first vertex of a triangle to be computed credits the
// other two; later ones find that vertex done and credit nothing, so t[v]
// counts each triangle at most once per corner and never exceeds the true
// number of adjacent pairs. Bounds only order and prune candidates: every
// score in R comes from the kernel.
//
// With workers W > 1, each step first reads H's next W+1 candidates without
// taking them (ahead), and the kernels of those priced at minPrice or more
// run on W helpers (spec) while the loop decides the earlier ones. The loop
// still pops every candidate from H and decides it against the live R, H
// and t; a computed candidate takes its speculated score and ego CSR, which
// are the bits the inline kernel would return, so the answer and every
// counter are those of W = 1.
type searcher struct {
	g     graph.View
	theta float64
	ext   []int32 // external labels: tie order in R and H, ids of the results
	r     *topk.Bounded
	h     *topk.MaxHeap
	s     *Scratch
	t     []int64 // nil under the static bound (BaseBSearch)
	done  []bool  // computed exactly; its triangles have been credited
	sd    *seed   // published scores H and R start from; nil for the paper's searches
	st    SearchStats

	workers  int         // W; 1 runs every kernel inline
	minPrice int64       // speculate a candidate from this ego-build price on
	dmax     int32       // largest degree H holds: sizes the helpers' Scratches
	next     []topk.Item // H's next W+1 candidates, as ahead last read them
	sp       *spec       // nil until the first candidate is speculated
}

// newSearcher allocates for what H holds — a seeded search O(k) plus its
// stale set; the Scratch grows on the first inline kernel.
func newSearcher(g graph.View, k int, theta float64, ext []int32, dynamic bool, sd *seed, workers int, minPrice int64) *searcher {
	n := g.NumVertices()
	hcap := int(n)
	if sd != nil {
		hcap = 0
	}
	q := &searcher{
		g:        g,
		theta:    theta,
		ext:      ext,
		sd:       sd,
		r:        topk.NewBoundedLabeled(k, ext),
		h:        topk.NewMaxHeapLabeled(hcap, ext),
		s:        NewScratch(0),
		workers:  workers,
		minPrice: minPrice,
	}
	if dynamic {
		q.t = make([]int64, n)
		q.done = make([]bool, n)
	}
	for v := int32(0); v < n; v++ {
		if sd != nil && !sd.stale(v) {
			q.r.Add(v, sd.score(v)) // seeded exact: no kernel, no trip through H
			continue
		}
		d := g.Degree(v)
		q.dmax = max(q.dmax, d)
		if sd == nil {
			q.h.Push(v, StaticUB(d))
		} else {
			q.h.Push(v, sd.score(v))
		}
	}
	return q
}

// bound is the dynamic upper bound ũb(v) under the triangles seen so far.
func (q *searcher) bound(v int32) float64 {
	return StaticUB(q.g.Degree(v)) - float64(q.t[v])
}

// step handles the candidate with the largest bound: prunes it, defers it
// under a tighter bound, or computes it. It reports false once the search is
// over. R is ordered by (score desc, label asc), so a candidate is hopeless
// exactly when its bound does not beat the worst held item under its own
// label: below the k-th score everything left in H is hopeless too, while
// on a tie with the k-th score only this candidate is — candidates pop the
// larger label first, and a later one with the same bound may carry a
// smaller.
func (q *searcher) step() bool {
	q.ahead()
	if q.h.Len() == 0 {
		q.sp.close()
		return false
	}
	top := q.h.Pop()
	v, tb := top.V, top.Score
	worst, full := q.r.Worst()
	if full && !q.r.Beats(v, tb, worst) {
		if tb < worst.Score {
			q.st.Pruned += int64(q.h.Len()) + 1
			q.sp.close()
			return false
		}
		q.st.Pruned++
		q.sp.release(v)
		return true
	}
	if q.t != nil {
		ub := q.bound(v)
		q.st.BoundRefreshes++
		if q.theta*ub < tb {
			// The bound dropped substantially: defer or prune.
			if !full || ub >= worst.Score {
				q.h.Push(v, ub)
				q.st.Reinserted++
			} else {
				q.st.Pruned++
				q.sp.release(v)
			}
			return true
		}
	}
	cb, off, adj := q.kernel(v)
	q.r.Add(v, cb)
	q.st.Computed++
	if q.t != nil {
		q.credit(v, off, adj)
	}
	q.sp.release(v)
	return true
}

// kernel returns v's score and ego CSR: the speculated ones when v holds a
// slot, else the kernel's inline on the searcher's Scratch.
func (q *searcher) kernel(v int32) (float64, []int, []int32) {
	if i := q.sp.held(v); i >= 0 {
		q.sp.await(i)
		sl := &q.sp.slots[i]
		return sl.cb, sl.off, sl.adj
	}
	return egoKernel(q.g, v, q.s)
}

// ahead reads H's next W+1 candidates — the one step is about to decide
// and the W behind it — and hands each one that holds no slot yet and is
// priced at minPrice or more to the helpers, front first, until the slots
// run out; the rest run inline when popped. At W = 1 it does nothing.
func (q *searcher) ahead() {
	if q.workers <= 1 {
		return
	}
	q.next = q.h.Top(q.next[:0], q.workers+1)
	for _, it := range q.next {
		if q.sp.held(it.V) >= 0 || q.g.Degree(it.V) < 2 {
			continue
		}
		price := q.price(it.V)
		if price < q.minPrice {
			continue
		}
		if q.sp == nil {
			q.sp = newSpec(q.g, q.workers, q.dmax, price)
		}
		if !q.sp.dispatch(it, price, q.next) {
			return
		}
	}
}

// price is the ego-build price Σ_{v∈N(p)} d(v), an upper bound on the
// length of p's ego CSR.
func (q *searcher) price(p int32) (w int64) {
	for _, v := range q.g.Neighbors(p) {
		w += int64(q.g.Degree(v))
	}
	return w
}

// spec runs kernels ahead of the loop: W helpers, each over its own
// Scratch, build a candidate's ego CSR into the buffers of a slot and score
// it. A slot belongs to the helper from dispatch until the searcher
// receives its index on ready, and to the searcher otherwise; it holds its
// result until the candidate is computed or pruned, or until a candidate
// nearer the front of H needs the slot. All memory is the search's own:
// a helper still running when the search ends writes into a slot nothing
// reads any more, and the GC reclaims both. All methods but help run on
// the searcher's goroutine; held, release and close are no-ops on a nil
// spec.
type spec struct {
	slots []slot
	jobs  chan job   // dispatched kernels, front of H first
	ready chan int32 // slots whose kernel has finished
	stop  atomic.Bool
	price int64 // the largest price a slot's buffer has been sized for
}

type job struct{ slot, v int32 }

type slot struct {
	v       int32   // the candidate whose result this is; −1 none
	pending bool    // dispatched, not yet back on ready
	key     float64 // v's bound in H when dispatched
	cb      float64
	off     []int // v's ego CSR once back, built in place: no growth
	adj     []int32
}

// newSpec starts w helpers over fresh Scratches sized for egos of degree
// dmax, with slotsPerHelper·w slots carving their buffers from two arrays:
// CSR offsets for degree dmax, CSR rows for the price of the first
// candidate — the largest ego comes first, so a slot rarely grows after.
func newSpec(g graph.View, w int, dmax int32, price int64) *spec {
	ns := slotsPerHelper * w
	d, p := int(dmax)+1, int(price)
	// A slot has at most one job outstanding, so ns entries are room for
	// every send on either channel: neither side ever blocks on a send.
	sp := &spec{
		slots: make([]slot, ns),
		jobs:  make(chan job, ns),
		ready: make(chan int32, ns),
		price: price,
	}
	offs, adjs := make([]int, ns*d), make([]int32, ns*p)
	for i := range sp.slots {
		sp.slots[i] = slot{v: -1, off: offs[i*d : i*d : (i+1)*d], adj: adjs[i*p : i*p : (i+1)*p]}
	}
	n := int(g.NumVertices())
	for range w {
		s := NewScratch(0)
		s.ensure(n, int(dmax))
		go sp.help(g, s)
	}
	return sp
}

// help runs dispatched kernels until the searcher closes jobs; once the
// search is over it returns the remaining slots unscored. Nothing waits for
// the helpers: a search that stops early would otherwise pay for a kernel
// it discards.
func (sp *spec) help(g graph.View, s *Scratch) {
	for j := range sp.jobs {
		if !sp.stop.Load() {
			sl := &sp.slots[j.slot]
			s.off, s.adj = sl.off, sl.adj
			sl.cb, sl.off, sl.adj = egoKernel(g, j.v, s)
		}
		sp.ready <- j.slot
	}
}

// dispatch hands the kernel of it.V to the helpers and reports false when no
// slot can take it. It takes a free slot, else the idle held result with
// the lowest key among those whose candidate is not in next, the
// candidates about to pop. A slot's row buffer too small for the price is
// replaced by one for the largest price so far, so the helper never
// allocates.
func (sp *spec) dispatch(it topk.Item, price int64, next []topk.Item) bool {
	sp.poll()
	i, evict := -1, -1
	for j := range sp.slots {
		sl := &sp.slots[j]
		if sl.v < 0 && !sl.pending {
			i = j
			break
		}
		if sl.pending || (evict >= 0 && sl.key >= sp.slots[evict].key) {
			continue
		}
		if !slices.ContainsFunc(next, func(c topk.Item) bool { return c.V == sl.v }) {
			evict = j
		}
	}
	if i < 0 {
		i = evict
	}
	if i < 0 {
		return false
	}
	sl := &sp.slots[i]
	if int64(cap(sl.adj)) < price {
		sp.price = max(sp.price, price)
		sl.adj = make([]int32, 0, sp.price)
	}
	sl.v, sl.pending, sl.key = it.V, true, it.Score
	sp.jobs <- job{int32(i), it.V}
	return true
}

// poll takes every finished kernel without blocking.
func (sp *spec) poll() {
	for {
		select {
		case i := <-sp.ready:
			sp.slots[i].pending = false
		default:
			return
		}
	}
}

// await blocks until slot i's kernel has finished.
func (sp *spec) await(i int) {
	for sp.slots[i].pending {
		sp.slots[<-sp.ready].pending = false
	}
}

// held returns the slot holding v's result, or −1.
func (sp *spec) held(v int32) int {
	if sp == nil {
		return -1
	}
	for i := range sp.slots {
		if sp.slots[i].v == v {
			return i
		}
	}
	return -1
}

// release frees v's slot once v is decided; a kernel still running keeps it
// until the kernel is back.
func (sp *spec) release(v int32) {
	if i := sp.held(v); i >= 0 {
		sp.slots[i].v = -1
	}
}

// close ends the helpers: kernels still queued are skipped, and a kernel
// still running finishes into a slot nothing reads.
func (sp *spec) close() {
	if sp != nil && !sp.stop.Swap(true) {
		close(sp.jobs)
	}
}

// credit feeds the bound from the ego CSR of the just-computed p: edge
// (a, b) between two neighbors is the triangle {p, a, b}, an adjacent pair
// in GE(a) and in GE(b). A done endpoint means that vertex discovered the
// triangle first and credited the rest of it then.
func (q *searcher) credit(p int32, off []int, adj []int32) {
	q.done[p] = true
	q.st.EdgesProcessed += int64(len(adj) / 2)
	nu := q.g.Neighbors(p)
	for x := 0; x+1 < len(off); x++ {
		a := nu[x]
		if q.done[a] {
			continue
		}
		var credits int64
		for _, y := range adj[off[x]:off[x+1]] {
			if int(y) > x && !q.done[nu[y]] {
				q.t[nu[y]]++
				credits++
			}
		}
		q.t[a] += credits
		q.st.CreditOps += 2 * credits
	}
}

// TopKExact is the straightforward baseline: compute every vertex exactly
// and sort. It anchors correctness tests and the "compute all" reference
// point in the experiments. k ≤ 0 selects nothing and computes nothing; a
// k beyond n selects all n.
func TopKExact(g graph.View, k int) []Result {
	if k < 1 {
		return []Result{}
	}
	return TopKOfScores(ComputeAll(g), k)
}

// TopKOf selects the k best of n scores read through at(v), sorted
// descending with ties by ascending id. The accessor form lets callers hold
// scores in any layout — the serving layer's chunked copy-on-write vector
// reads through it without flattening. k ≤ 0 selects nothing; a k beyond n
// selects all n.
func TopKOf(n int32, at func(int32) float64, k int) []Result {
	if k < 1 {
		return []Result{}
	}
	r := topk.NewBounded(min(k, int(n)))
	for v := int32(0); v < n; v++ {
		r.Add(v, at(v))
	}
	return toResults(r)
}

// TopKOfScores selects the k best vertices from a precomputed score vector
// (maintained scores, a frozen snapshot, …), sorted descending with ties by
// ascending id. Shared by Maintainer.TopK and the serving layer.
func TopKOfScores(scores []float64, k int) []Result {
	return TopKOf(int32(len(scores)), func(v int32) float64 { return scores[v] }, k)
}

func toResults(r *topk.Bounded) []Result {
	return toResultsLabeled(r, nil)
}

// toResultsLabeled extracts results translated to external ids. The Bounded
// must have been constructed with the same ext, so its tie-sort already ran
// on external labels and the translated list stays ordered.
func toResultsLabeled(r *topk.Bounded, ext []int32) []Result {
	items := r.Results()
	out := make([]Result, len(items))
	for i, it := range items {
		v := it.V
		if ext != nil {
			v = ext[v]
		}
		out[i] = Result{V: v, CB: it.Score}
	}
	return out
}

// Overlap returns |A ∩ B| / max(|A|, |B|) over the vertex sets of two result
// lists — the effectiveness metric of Fig. 11/12 (reported there as the
// overlap of top-k betweenness and top-k ego-betweenness).
func Overlap(a, b []Result) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[int32]struct{}, len(a))
	for _, x := range a {
		set[x.V] = struct{}{}
	}
	inter := 0
	for _, y := range b {
		if _, ok := set[y.V]; ok {
			inter++
		}
	}
	return float64(inter) / float64(max(len(a), len(b)))
}
