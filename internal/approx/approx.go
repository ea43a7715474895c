// Package approx is the approximate serving tier: sampled top-k
// ego-betweenness with probabilistic error bounds, for hub-heavy graphs
// where even the exact tier's per-query cost — a kernel pass over the
// largest egos — is more than an (ε, δ) answer needs to pay (DESIGN.md §15
// has today's exact-vs-approx numbers). It owns the racing loop and the
// stopping rule; everything per-ego — the exact fallback and the sampling
// tables — comes from the dense kernel of internal/ego.
//
// The estimator treats CB(p) = Σ_{u<v ∈ N(p)} term(u,v) as ub(p)·E[X]
// where ub(p) = d(d−1)/2 and X is the term of a uniformly drawn neighbor
// pair — 0 when the pair is adjacent, 1/(c_p+1) otherwise — so X ∈ [0, 1]
// and standard concentration bounds apply. Per candidate it draws pairs
// until an empirical-Bernstein stopping rule (Audibert et al.; the
// adaptive-sampling design follows Chehreghani et al.) certifies a
// normalized half-width ≤ ε at confidence 1−δ, capped by the fixed
// Hoeffding budget t_max = ⌈ln(2/δ)/(2ε²)⌉; vertices whose pair count is
// below t_max are computed exactly instead (sampling could not beat
// enumeration there).
//
// Candidates come from a betweenness-ordering prescreen (Singh et al.):
// vertices are visited in the degree total order ≺, an initial pool of
// max(2k, k+64) is estimated, and the pool escalates in batches while the
// next unseen vertex's static upper bound d(d−1)/2 still exceeds the
// certified lower bound of the current k-th estimate — every vertex never
// estimated is provably (up to δ) unable to enter the top-k.
//
// Candidates race rather than resolve one-shot: sampling proceeds in
// global rounds, and at each round barrier a candidate whose upper
// confidence bound has fallen below the k-th best certified lower bound is
// pruned — it provably (up to δ) cannot enter the top-k, so spending its
// remaining budget would buy nothing. Only genuine contenders pay the full
// (ε, δ) budget; on a skewed graph most of the pool exits after a round or
// two, which is where the tier's speedup over exact search comes from.
// Pruned vertices are never returned, so the per-vertex ε guarantee on
// returned results is unaffected. (As is standard practice for these
// stopping rules, the δ accounting treats each candidate's final bound as
// one event rather than union-bounding over every intermediate check.)
//
// Determinism contract: each vertex's sample stream is a pure function of
// (Options.Seed, vertex id) — a per-vertex PCG stream — and pruning
// decisions happen only at round barriers, computed from those streams, so
// results do not depend on worker count or scheduling, and running on any
// view flavor with the same vertex ids (frozen CSR, overlay, dynamic)
// yields bit-identical results — which is what makes the serving layer's
// answers identical across frozen and overlay snapshots.
package approx

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ego"
	"repro/internal/graph"
)

// Default knob values, shared with the serving layer's query parsing.
const (
	DefaultEps  = 0.05 // normalized half-width target
	DefaultConf = 0.95 // confidence 1−δ
	DefaultSeed = 1    // sampling seed when the query leaves it unset
)

const (
	// sampleBatch is how often the sampling loop re-evaluates the
	// empirical-Bernstein stopping rule; checking every draw would put a
	// sqrt+log on the hot loop for no precision gain.
	sampleBatch = 32
	// roundBatches is how many sampleBatch groups a candidate draws per
	// racing round. Larger rounds amortize the per-round barrier, smaller
	// rounds prune losers sooner; two batches (64 draws) still gives a
	// t_max-budget candidate ~a dozen pruning checkpoints.
	roundBatches = 2
	// escalateMin floors both the initial candidate pool slack and each
	// escalation batch, so tiny k values still amortize the fan-out.
	escalateMin = 64
)

// Options are the approx-tier query knobs.
type Options struct {
	Eps     float64 // target normalized half-width ε ∈ (0, 1); 0 → DefaultEps
	Conf    float64 // confidence 1−δ ∈ (0, 1); 0 → DefaultConf
	Seed    uint64  // sample-stream seed; 0 → DefaultSeed
	Workers int     // parallel estimator workers; ≤ 0 → GOMAXPROCS
}

// withDefaults resolves zero values to the package defaults.
func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = DefaultEps
	}
	if o.Conf <= 0 {
		o.Conf = DefaultConf
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats reports what a TopK call did.
type Stats struct {
	Candidates  int     // vertices admitted to the race (after escalation)
	Escalations int     // candidate-pool extensions beyond the initial pool
	Exact       int64   // candidates resolved on the exact small-pair path
	Sampled     int64   // candidates that entered the sampling loop
	Pruned      int64   // candidates eliminated mid-race by the confidence bounds
	Samples     int64   // total pair samples drawn
	EpsAchieved float64 // max certified normalized half-width over the returned top-k
}

// Candidate states. A candidate enters pending, resolves on the exact
// small-pair path or by sampling to a certified ≤ε half-width, or is
// pruned when its upper confidence bound falls below the k-th best lower
// bound.
const (
	candPending uint8 = iota
	candAlive
	candExact
	candResolved
	candPruned
)

// cand is one candidate's racing state. Workers touch a cand only inside
// the round that owns it; pruning reads happen at the round barrier.
//
// off/arena are the candidate's sampling tables: its own copy of the ego
// CSR the exact kernel builds (ego.Scratch.EgoCSR), taken at its first
// sampling touch. Row i, arena[off[i]:off[i+1]], is the i-th neighbor's
// adjacency restricted to the ego net, R_i = N(N(p)[i]) ∩ N(p), as ascending
// positions in N(p). A drawn pair {i, j} is adjacent iff j ∈ R_i, and
// otherwise has c_p = |R_i ∩ R_j| connectors — one probe and one merge of
// two short lists per draw, no graph access. The tables are released the
// moment the candidate leaves the race.
type cand struct {
	v        int32
	d        int
	ub       float64
	off      []int      // len d+1 row offsets into arena
	arena    []int32    // concatenated restricted lists, local ids
	rng      *rand.Rand // per-vertex stream: pure in (seed, v)
	t        int64      // pair samples drawn so far
	mean, m2 float64    // Welford running moments of X
	est      float64    // ub·mean (exact CB on the exact path)
	low      float64    // certified lower bound, clamped ≥ 0
	high     float64    // certified upper bound, clamped ≤ ub
	halfNorm float64    // current certified normalized half-width
	state    uint8
}

// release drops a candidate's sampling tables once it leaves the race.
func (c *cand) release() {
	c.off, c.arena, c.rng = nil, nil, nil
}

// estimator carries the per-query constants shared by all workers.
type estimator struct {
	g      graph.View
	eps    float64
	seed   uint64
	tMax   int64   // Hoeffding budget ⌈ln(2/δ)/(2ε²)⌉
	bernL  float64 // ln(3/δ) for the empirical-Bernstein half-width
	hoeffL float64 // ln(2/δ) for the anytime Hoeffding half-width
}

// newEstimator derives the per-query constants from resolved options.
func newEstimator(g graph.View, o Options) *estimator {
	delta := 1 - o.Conf
	return &estimator{
		g:      g,
		eps:    o.Eps,
		seed:   o.Seed,
		tMax:   int64(math.Ceil(math.Log(2/delta) / (2 * o.Eps * o.Eps))),
		bernL:  math.Log(3 / delta),
		hoeffL: math.Log(2 / delta),
	}
}

// scratchPool recycles the per-worker ego scratch the exact path and the
// table copies run on.
var scratchPool = sync.Pool{New: func() any { return ego.NewScratch(0) }}

// streamOf decorrelates per-vertex PCG streams: a fixed odd multiplier
// spreads consecutive ids across the stream space. Pure in (id), so the
// (seed, id) pair fully determines a vertex's samples.
func streamOf(v int32) uint64 {
	return (uint64(uint32(v)) + 1) * 0x9E3779B97F4A7C15
}

// TopK returns the approximate top-k ego-betweenness vertices of g in
// descending estimated score (ties by ascending id). Results are
// deterministic for a fixed Options.Seed regardless of Workers. With
// probability ≥ 1−δ per returned vertex, |est − CB| ≤ ε·d(d−1)/2.
func TopK(g graph.View, k int, o Options) ([]ego.Result, Stats) {
	o = o.withDefaults()
	var st Stats
	n := int(g.NumVertices())
	if k <= 0 || n == 0 {
		return []ego.Result{}, st
	}
	if k > n {
		k = n
	}
	e := newEstimator(g, o)

	order := degreeOrder(g)
	pool := k + escalateMin
	if c := 2 * k; c > pool {
		pool = c
	}
	if pool > n {
		pool = n
	}
	cands := make([]*cand, 0, pool)
	admit := func(to int) {
		for len(cands) < to {
			v := order[len(cands)]
			d := int(g.Degree(v))
			ub := ego.StaticUB(int32(d))
			cands = append(cands, &cand{v: v, d: d, ub: ub, high: ub, state: candPending})
		}
	}
	admit(pool)
	e.race(cands, k, o.Workers)

	// Escalate while the next unseen vertex's static UB could still beat
	// the certified lower bound of the k-th best estimate. order is sorted
	// by non-increasing degree, so the first failing vertex proves every
	// later one out too.
	for len(cands) < n {
		kthLow := kthBestLow(cands, k)
		if ego.StaticUB(g.Degree(order[len(cands)])) <= kthLow {
			break
		}
		add := len(cands) / 2
		if add < escalateMin {
			add = escalateMin
		}
		to := len(cands) + add
		if to > n {
			to = n
		}
		admit(to)
		e.race(cands, k, o.Workers)
		st.Escalations++
	}
	st.Candidates = len(cands)

	// Only resolved candidates are eligible for the answer: a pruned
	// vertex's estimate stopped early, so its noise could exceed ε — but
	// its upper bound already proved it out of the top-k. At least k
	// candidates always resolve (the k holding the k-th best lower bound
	// can never be pruned by it).
	final := cands[:0]
	for _, c := range cands {
		switch c.state {
		case candExact:
			st.Exact++
			final = append(final, c)
		case candResolved:
			final = append(final, c)
		case candPruned:
			st.Pruned++
		}
		if c.t > 0 {
			st.Sampled++
		}
		st.Samples += c.t
	}
	sort.Slice(final, func(i, j int) bool {
		if final[i].est != final[j].est {
			return final[i].est > final[j].est
		}
		return final[i].v < final[j].v
	})
	if k > len(final) {
		k = len(final)
	}
	res := make([]ego.Result, k)
	for i := 0; i < k; i++ {
		res[i] = ego.Result{V: final[i].v, CB: final[i].est}
		if final[i].halfNorm > st.EpsAchieved {
			st.EpsAchieved = final[i].halfNorm
		}
	}
	return res, st
}

// degreeOrder returns g's vertices by non-increasing degree, ties by
// ascending id — the prescreen's total order — via a counting sort over
// degree buckets. The obvious comparison sort costs O(n log n) per query
// and showed up as ~20% of an approx query on the profile; the bucket
// pass is O(n + maxDegree).
func degreeOrder(g graph.View) []int32 {
	n := int(g.NumVertices())
	degs := make([]int32, n)
	maxd := int32(0)
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		degs[v] = d
		if d > maxd {
			maxd = d
		}
	}
	// count[b] buckets degree maxd−b, so bucket order is descending degree.
	count := make([]int32, maxd+1)
	for _, d := range degs {
		count[maxd-d]++
	}
	var sum int32
	for i, c := range count {
		count[i] = sum
		sum += c
	}
	order := make([]int32, n)
	for v := 0; v < n; v++ { // ascending id within each bucket
		b := maxd - degs[v]
		order[count[b]] = int32(v)
		count[b]++
	}
	return order
}

// kthBestLow returns the k-th largest certified lower bound among the
// candidates (the escalation and pruning cutoff). Fewer candidates than k
// means nothing is certified yet, so the cutoff is 0.
func kthBestLow(cands []*cand, k int) float64 {
	if len(cands) < k {
		return 0
	}
	lows := make([]float64, len(cands))
	for i, c := range cands {
		lows[i] = c.low
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(lows)))
	return lows[k-1]
}

// race runs the sampling rounds until every candidate is resolved or
// pruned. Pruning happens only here, at the round barrier, from the
// deterministic per-vertex streams — never inside a worker — which is what
// keeps the outcome independent of worker count and scheduling.
func (e *estimator) race(cands []*cand, k, workers int) {
	work := make([]*cand, 0, len(cands))
	for {
		// Prune before the round, so escalated candidates whose static UB
		// is already beaten never sample at all.
		kthLow := kthBestLow(cands, k)
		work = work[:0]
		for _, c := range cands {
			if c.state != candPending && c.state != candAlive {
				continue
			}
			if c.high < kthLow {
				c.state = candPruned
				c.release()
				continue
			}
			work = append(work, c)
		}
		if len(work) == 0 {
			return
		}
		e.runRound(work, workers)
	}
}

// runRound advances every working candidate by one round, fanning out
// across workers. Each candidate is owned by exactly one worker per round.
func (e *estimator) runRound(work []*cand, workers int) {
	if workers > len(work) {
		workers = len(work)
	}
	if workers <= 1 {
		s := scratchPool.Get().(*ego.Scratch)
		for _, c := range work {
			e.round(c, s)
		}
		scratchPool.Put(s)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*ego.Scratch)
			defer scratchPool.Put(s)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(work) {
					break
				}
				e.round(work[i], s)
			}
		}()
	}
	wg.Wait()
}

// round advances one candidate. Its first touch resolves it exactly when
// its pair count is within the Hoeffding budget (sampling could not beat
// enumeration) or seeds its stream and copies its tables off the kernel's
// ego CSR — one O(Σ_{v∈N(p)} d(v)) pass that turns every later draw into a
// short merge; then it draws up to roundBatches·sampleBatch pairs,
// re-certifying the confidence interval after each batch.
func (e *estimator) round(c *cand, s *ego.Scratch) {
	if c.state == candPending {
		pairs := int64(c.d) * int64(c.d-1) / 2
		if pairs <= e.tMax {
			cb := ego.EgoBetweenness(e.g, c.v, s)
			c.est, c.low, c.high = cb, cb, cb
			c.state = candExact
			return
		}
		c.rng = rand.New(rand.NewPCG(e.seed, streamOf(c.v)))
		_, off, adj := s.EgoCSR(e.g, c.v)
		c.off, c.arena = slices.Clone(off), slices.Clone(adj)
		c.state = candAlive
	}
	d := c.d
	// A candidate's first round is a single batch: losers prune after 32
	// draws instead of 64, halving the pool-wide warm-up cost.
	batches := roundBatches
	if c.t == 0 {
		batches = 1
	}
	for r := 0; r < batches; r++ {
		batch := e.tMax - c.t
		if batch > sampleBatch {
			batch = sampleBatch
		}
		for b := int64(0); b < batch; b++ {
			// Uniform unordered pair {i, j}, i ≠ j, via a shifted second draw.
			i := c.rng.IntN(d)
			j := c.rng.IntN(d - 1)
			if j >= i {
				j++
			}
			// The pair is adjacent iff each sits in the other's restricted
			// list — probe the shorter one.
			ri := c.arena[c.off[i]:c.off[i+1]]
			rj := c.arena[c.off[j]:c.off[j+1]]
			short, other := ri, int32(j)
			if len(rj) < len(ri) {
				short, other = rj, int32(i)
			}
			var x float64
			if !containsInt32(short, other) {
				x = 1 / float64(commonCount(ri, rj)+1)
			}
			c.t++
			delta := x - c.mean
			c.mean += delta / float64(c.t)
			c.m2 += delta * (x - c.mean)
		}
		// Certify the tighter of the empirical-Bernstein and anytime
		// Hoeffding half-widths at confidence 1−δ.
		v := c.m2 / float64(c.t)
		h := math.Sqrt(2*v*e.bernL/float64(c.t)) + 3*e.bernL/float64(c.t)
		if hh := math.Sqrt(e.hoeffL / (2 * float64(c.t))); hh < h {
			h = hh
		}
		if h <= e.eps || c.t >= e.tMax {
			if h > e.eps {
				h = e.eps // the full-budget Hoeffding certificate
			}
			c.state = candResolved
		}
		c.halfNorm = h
		c.est = c.ub * c.mean
		c.low = c.est - c.ub*h
		if c.low < 0 {
			c.low = 0 // CB ≥ 0 always; the clamp only tightens the certificate
		}
		c.high = c.est + c.ub*h
		if c.high > c.ub {
			c.high = c.ub // CB ≤ d(d−1)/2 always
		}
		if c.state == candResolved {
			c.release()
			return
		}
	}
}

// containsInt32 reports whether sorted list holds v; the restricted lists
// it probes are short, so a branchless-ish binary search suffices.
func containsInt32(list []int32, v int32) bool {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && list[lo] == v
}

// commonCount returns |a ∩ b| for two sorted lists. The restricted lists
// it merges are short (a neighbor pair's common candidates within one ego
// net), so a plain two-pointer merge beats anything fancier.
func commonCount(a, b []int32) int32 {
	var c int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
