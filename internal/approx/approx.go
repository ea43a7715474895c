// Package approx is the approximate serving tier: sampled top-k
// ego-betweenness with probabilistic error bounds, for hub-heavy graphs
// where even the exact tier's per-query cost — a kernel pass over the
// largest egos — is more than an (ε, δ) answer needs to pay (DESIGN.md §15
// has today's exact-vs-approx numbers). It owns the racing loop and the
// stopping rule; everything per-ego — the exact pass and the sampling
// tables — comes from the dense kernel of internal/ego.
//
// The estimator treats CB(p) = Σ_{u<v ∈ N(p)} term(u,v) as ub(p)·E[X]
// where ub(p) = d(d−1)/2 and X is the term of a uniformly drawn neighbor
// pair — 0 when the pair is adjacent, 1/(c_p+1) otherwise — so X ∈ [0, 1]
// and standard concentration bounds apply. Per candidate it draws pairs
// until an empirical-Bernstein stopping rule (Audibert et al.; the
// adaptive-sampling design follows Chehreghani et al.) certifies a
// normalized half-width ≤ ε at confidence 1−δ, capped by the fixed
// Hoeffding budget t_max = ⌈ln(2/δ)/(2ε²)⌉.
//
// Sampling is not always the cheaper way to that bound: a candidate's
// tables are a copy of the ego CSR the exact kernel builds, so its exact
// score is one counting pass away. One cost rule, applied once at a
// candidate's first touch, prices both in kernel steps — the pass at
// ego.Scratch.Price, the unit ego.Sweep plans by; a draw at a + b·(the
// expected length of the two rows it merges) — and resolves the candidate
// exactly iff the pass costs no more than its whole budget of t_max draws.
// Everyone else samples until the stopping rule resolves it or the barrier
// prunes it: its remaining budget only shrinks, so the pass never becomes
// the cheaper way later. An exact candidate's interval has zero width.
//
// Candidates come from a betweenness-ordering prescreen (Singh et al.):
// vertices are admitted in the paper's total order ≺ (graph.OrderOf), the
// first k at once, then in batches while the next unseen vertex's static
// upper bound d(d−1)/2 still reaches the certified lower bound of the
// current k-th estimate — the cut BaseBSearch makes, so every vertex never
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
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/par"
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
	// escalateMin floors each escalation batch, so tiny k values still
	// amortize the fan-out.
	escalateMin = 64
)

// The cost rule's draw price, in ego.Scratch.Price's kernel steps: a draw
// costs drawBase + drawMerge·L, L = 2·|adj|/d being the expected merged
// length |R_i| + |R_j| of the drawn pair's rows. BenchmarkCostModel
// measures it over the k = 100 pool of the benchmark's generators (2-vCPU
// Xeon, six runs; base and merge fit a line to each candidate's draw cost
// over its L):
//
//	shape     ns/step walk, words  L     steps/draw  base     merge
//	collab    5.0–5.5, 8.1–9.1     14.8  28–30       9.5–14   1.0–1.3
//	powerlaw  2.7–3.3, 7.2–8.2     14.1  26–30       3.2–7.2  1.3–1.8
//
// The draw price, 25.6–26.5 steps, sits a little under both shapes' cost,
// since pruning or early stopping usually cut a sampled candidate's budget
// short. A one-word-row step costs about twice a walk step, so the rule
// errs toward the exact pass on the small egos priced so.
const (
	drawBase  = 8.0
	drawMerge = 1.25
)

// Options are the approx-tier query knobs.
type Options struct {
	Eps     float64 // target normalized half-width ε ∈ (0, 1); 0 → DefaultEps
	Conf    float64 // confidence 1−δ ∈ (0, 1); 0 → DefaultConf
	Seed    uint64  // sample-stream seed; 0 → DefaultSeed
	Workers int     // parallel estimator workers; ≤ 0 → GOMAXPROCS

	ctx context.Context // TopKContext's; nil never cancels
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
	if o.ctx == nil {
		o.ctx = context.Background()
	}
	return o
}

// Stats reports what a TopK call did.
type Stats struct {
	Candidates  int     // vertices admitted to the race (after escalation)
	Escalations int     // admissions beyond the first k: the normal path whenever k < n
	Exact       int64   // candidates resolved by the exact counting pass
	Sampled     int64   // candidates that entered the sampling loop
	Pruned      int64   // candidates eliminated mid-race by the confidence bounds
	Samples     int64   // total pair samples drawn
	EpsAchieved float64 // max certified normalized half-width over the returned top-k
}

// Candidate states. A candidate enters pending and resolves exactly when
// the cost rule finds the counting pass cheaper; otherwise it turns alive
// and resolves by sampling to a certified ≤ε half-width, or is pruned when
// its upper confidence bound falls below the k-th best lower bound.
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

// settle resolves a candidate at its exact score cb: a zero-width interval.
func (c *cand) settle(cb float64) {
	c.est, c.low, c.high, c.halfNorm = cb, cb, cb, 0
	c.state = candExact
	c.release()
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
	top, st := topK(g, k, o)
	res := make([]ego.Result, len(top))
	for i, c := range top {
		res[i] = ego.Result{V: c.v, CB: c.est}
	}
	return res, st
}

// TopKContext is TopK for a caller that may stop waiting: the race checks
// ctx once per round, and once ctx is done TopKContext returns ctx.Err()
// without results.
func TopKContext(ctx context.Context, g graph.View, k int, o Options) ([]ego.Result, Stats, error) {
	o.ctx = ctx
	res, st := TopK(g, k, o)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	return res, st, nil
}

// topK is TopK that returns the winning candidates themselves, in answer
// order.
func topK(g graph.View, k int, o Options) ([]*cand, Stats) {
	o = o.withDefaults()
	var st Stats
	n := int(g.NumVertices())
	if k <= 0 || n == 0 {
		return nil, st
	}
	k = min(k, n)
	e := newEstimator(g, o)

	// Admit along ≺ as BaseBSearch computes: k candidates first, then
	// batches while the next unseen vertex's static UB could still beat the
	// certified lower bound of the k-th best estimate — or tie it: ≺ admits
	// a degree class from its highest id down, while the answer breaks score
	// ties by ascending id, so an unseen vertex whose bound equals the k-th
	// score may be the one exact would name. order is sorted by
	// non-increasing degree, so the first vertex below the bound proves
	// every later one out too.
	order := graph.OrderOf(g)
	cands := make([]*cand, 0, k)
	admit := func(to int) {
		for len(cands) < to {
			v := order[len(cands)]
			d := int(g.Degree(v))
			ub := ego.StaticUB(int32(d))
			cands = append(cands, &cand{v: v, d: d, ub: ub, high: ub, state: candPending})
		}
	}
	admit(k)
	for {
		if e.race(o.ctx, cands, k, o.Workers) != nil {
			return nil, st
		}
		if len(cands) == n || ego.StaticUB(g.Degree(order[len(cands)])) < kthBestLow(cands, k) {
			break
		}
		admit(min(len(cands)+max(len(cands)/2, escalateMin), n))
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
	final = final[:min(k, len(final))]
	for _, c := range final {
		st.EpsAchieved = max(st.EpsAchieved, c.halfNorm)
	}
	return final, st
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
// pruned, or until ctx is done, which it checks once per round. Pruning
// happens only here, at the round barrier, from the deterministic
// per-vertex streams — never inside a worker — which is what keeps the
// outcome independent of worker count and scheduling. Each round fans the
// working candidates out across workers, one owner per candidate; a worker
// takes its pooled ego scratch at its first candidate and keeps it for the
// rest of the race.
func (e *estimator) race(ctx context.Context, cands []*cand, k, workers int) error {
	work := make([]*cand, 0, len(cands))
	scratch := make([]*ego.Scratch, max(min(workers, len(cands)), 1))
	defer func() {
		for _, s := range scratch {
			if s != nil {
				scratchPool.Put(s)
			}
		}
	}()
	step := func(w, i int) {
		if scratch[w] == nil {
			scratch[w] = scratchPool.Get().(*ego.Scratch)
		}
		e.round(work[i], scratch[w])
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Prune before the round, so admitted candidates whose static UB
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
			return nil
		}
		par.For(workers, len(work), step)
	}
}

// round advances one candidate by one round. Its first touch builds its ego
// CSR and applies the cost rule (see the package comment): it resolves
// exactly, or seeds its stream and copies its tables off the CSR — one
// O(Σ_{v∈N(p)} d(v)) pass that turns every later draw into a short merge.
// A sampling candidate draws up to roundBatches·sampleBatch pairs per round,
// re-certifying the confidence interval after each batch. The decision is a
// pure function of the ego's adjacency, so the determinism contract holds.
// A candidate that has left the race is left alone.
func (e *estimator) round(c *cand, s *ego.Scratch) {
	if c.state == candPending {
		_, off, adj := s.EgoCSR(e.g, c.v)
		draw := drawBase + drawMerge*2*float64(len(adj))/float64(max(c.d, 1))
		if float64(s.Price(off, adj)) <= float64(e.tMax)*draw {
			cb, _ := s.ScoreCSR(off, adj)
			c.settle(cb)
		} else {
			c.rng = rand.New(rand.NewPCG(e.seed, streamOf(c.v)))
			c.off, c.arena = slices.Clone(off), slices.Clone(adj)
			c.state = candAlive
		}
	}
	if c.state != candAlive {
		return
	}
	// A candidate's first round is a single batch: losers prune after 32
	// draws instead of 64, halving the pool-wide warm-up cost.
	batches := roundBatches
	if c.t == 0 {
		batches = 1
	}
	for r := 0; r < batches; r++ {
		c.sample(min(e.tMax-c.t, sampleBatch))
		// Certify the tighter of the empirical-Bernstein and anytime
		// Hoeffding half-widths at confidence 1−δ.
		v := c.m2 / float64(c.t)
		h := math.Sqrt(2*v*e.bernL/float64(c.t)) + 3*e.bernL/float64(c.t)
		h = min(h, math.Sqrt(e.hoeffL/(2*float64(c.t))))
		if h <= e.eps || c.t >= e.tMax {
			h = min(h, e.eps) // the full-budget Hoeffding certificate
			c.state = candResolved
		}
		c.halfNorm = h
		c.est = c.ub * c.mean
		// CB ∈ [0, d(d−1)/2] always; the clamps only tighten the certificate.
		c.low, c.high = max(c.est-c.ub*h, 0), min(c.est+c.ub*h, c.ub)
		if c.state == candResolved {
			c.release()
			return
		}
	}
}

// sample draws n uniform neighbor pairs off the candidate's tables and folds
// their terms into its running moments.
func (c *cand) sample(n int64) {
	d := c.d
	for b := int64(0); b < n; b++ {
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
		if _, adjacent := slices.BinarySearch(short, other); !adjacent {
			x = 1 / float64(nbr.IntersectCount(ri, rj)+1)
		}
		c.t++
		delta := x - c.mean
		c.mean += delta / float64(c.t)
		c.m2 += delta * (x - c.mean)
	}
}
