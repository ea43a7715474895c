package server

// This file is the read side of a served graph: the immutable snapshot and
// its result cache, the top-k query dispatch, and the per-vertex read.

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/ego"
	"repro/internal/graph"
)

// Top-k algorithms a query may select.
const (
	AlgoAuto   = "auto"   // scores in ModeLocal, lazy set in ModeLazy
	AlgoScores = "scores" // read the maintained exact scores (ModeLocal)
	AlgoLazy   = "lazy"   // the LazyTopK result set (ModeLazy, query k ≤ configured k)
	AlgoOpt    = "opt"    // OptBSearch on the snapshot CSR
	AlgoBase   = "base"   // BaseBSearch on the snapshot CSR
	AlgoApprox = "approx" // sampled estimator with (ε, δ) bounds (internal/approx)
)

// defaultTheta is the OptBSearch pruning parameter used when a query leaves
// θ unset (0). Any explicit θ < 1 is rejected instead of defaulted.
const defaultTheta = 1.05

// snapshot is the immutable unit of the epoch scheme. Readers obtain the
// current snapshot with one atomic pointer load and then work entirely on
// data that no writer will ever mutate: the one graph view every read runs
// on (a full CSR for epoch 1 and after compactions, a copy-on-write
// graph.Overlay for the cheap per-drain publications in between), the
// chunked copy-on-write score vector, and a result cache that lives and
// dies with the snapshot (swapping in a new snapshot is the cache
// invalidation).
type snapshot struct {
	epoch  uint64
	view   graph.View // *graph.Graph or *graph.Overlay
	scores *scoreVec  // exact CB per vertex at this epoch; nil in ModeLazy

	// publishDur is how long this snapshot's publication took (the initial
	// all-vertices computation for epoch 1, the O(batch) overlay
	// publication for later epochs) and buildWorkers the worker budget the
	// entry compacts and freezes with — both surfaced through GraphInfo.
	publishDur   time.Duration
	buildWorkers int

	cache      sync.Map     // cacheKey -> cachedResult
	cacheCount atomic.Int64 // entries stored, enforcing maxCacheEntries
	statsOnce  sync.Once
	stats      graph.Stats
}

// withView copies the snapshot's identity — epoch, scores, publication
// telemetry — onto a different view of the same graph. Compaction uses it
// to swap an overlay for its flattened CSR without changing what the
// snapshot answers. The result cache starts empty (sync.Map is not
// copyable); the entries were computed against an equivalent view, but
// re-deriving them is cheaper than a cache scheme that outlives snapshots.
func (s *snapshot) withView(v graph.View) *snapshot {
	return &snapshot{
		epoch: s.epoch, view: v, scores: s.scores,
		publishDur: s.publishDur, buildWorkers: s.buildWorkers,
	}
}

// maxCacheEntries caps a snapshot's result cache. The key space is
// client-chosen (every distinct θ is a distinct key), so without a cap a
// read-only graph — whose snapshot never swaps — would accumulate cached
// results forever. Past the cap queries still compute, just uncached.
const maxCacheEntries = 256

// cacheStore inserts res under key unless the cache is at capacity. The
// accounting reserves a slot first (Add) and rolls it back on either
// outcome that did not store a new entry — capacity exceeded, or another
// goroutine already holds the key — so concurrent misses can never push
// the cache past maxCacheEntries (a plain load-then-add check-then-act
// would let every goroutine at cap−1 pass the check at once).
func (s *snapshot) cacheStore(key cacheKey, res cachedResult) {
	if s.cacheCount.Add(1) > maxCacheEntries {
		s.cacheCount.Add(-1)
		return
	}
	if _, loaded := s.cache.LoadOrStore(key, res); loaded {
		s.cacheCount.Add(-1)
	}
}

// cachedResult is what the snapshot cache holds per key: the result list
// plus, for AlgoApprox, the estimator telemetry the payload echoes — a
// cache hit must report the same samples/ε-achieved the original
// computation did. hitBody is the encoded payload every hit on the entry
// answers with (a hit's payload is a function of the snapshot and the key
// alone), so the HTTP layer encodes it once per entry instead of once per
// hit; nil for k above maxHitBodyK.
type cachedResult struct {
	res         []ego.Result
	samples     int64
	epsAchieved float64
	hitBody     []byte
}

// maxHitBodyK bounds the result count whose encoded payload a cache entry
// keeps: at about 64 bytes per result a full cache of such entries stays
// within 16 MiB per snapshot whatever k the clients ask for.
const maxHitBodyK = 1024

// cacheKey identifies one top-k answer shape on a given snapshot. Floats
// (θ, ε, δ) are keyed by their bit patterns so any value compares
// exactly; the ε/δ/seed fields are zero except for AlgoApprox, whose
// answers depend on all three.
type cacheKey struct {
	k         int
	algo      string
	thetaBits uint64
	epsBits   uint64
	confBits  uint64
	seed      uint64
}

// Stats returns the Table-I style statistics of the snapshot, computed once
// per epoch on first demand.
func (s *snapshot) Stats() graph.Stats {
	s.statsOnce.Do(func() { s.stats = graph.ComputeStats(s.view) })
	return s.stats
}

// overlay returns the snapshot's view as an overlay, or nil when it is a
// full CSR.
func (s *snapshot) overlay() *graph.Overlay {
	ov, _ := s.view.(*graph.Overlay)
	return ov
}

// TopKResult is the top-k endpoint payload. The approx-tier fields are
// set only for AlgoApprox answers: the resolved ε / confidence / seed the
// estimator ran with, how many pair samples it drew, and the largest
// certified normalized half-width among the returned vertices.
type TopKResult struct {
	Graph             string       `json:"graph"`
	Epoch             uint64       `json:"epoch"`
	K                 int          `json:"k"`
	Algo              string       `json:"algo"`
	Theta             float64      `json:"theta,omitempty"`
	Eps               float64      `json:"eps,omitempty"`
	Conf              float64      `json:"conf,omitempty"`
	Seed              uint64       `json:"seed,omitempty"`
	ApproxSamples     int64        `json:"approx_samples,omitempty"`
	ApproxEpsAchieved float64      `json:"approx_eps_achieved,omitempty"`
	Cached            bool         `json:"cached"`
	Results           []ego.Result `json:"results"`

	hitBody []byte // cache hits: this payload already encoded (cachedResult.hitBody)
}

// TopKQuery is the full top-k query shape. Zero-valued knobs select the
// documented defaults (θ → defaultTheta; ε / Conf → approx.DefaultEps /
// approx.DefaultConf; Seed → approx.DefaultSeed). Eps/Conf/Seed apply only
// to AlgoApprox — setting any of them steers an auto query to the approx
// tier, and combining them with an explicit exact algo is rejected.
type TopKQuery struct {
	K     int
	Algo  string
	Theta float64
	Eps   float64
	Conf  float64
	Seed  uint64
}

// resolveQuery validates q against snap and returns the cache key that
// identifies its answer there: k clamped, "auto" (or "") replaced by the
// cheapest exact strategy for the graph's mode — or the approx tier when an
// approx knob is set explicitly — and every unset knob replaced by its
// default, so a query that spells a default out and one that leaves it
// unset share an entry. Out-of-range values are rejected, never rewritten.
func (e *entry) resolveQuery(snap *snapshot, q TopKQuery) (cacheKey, error) {
	k, algo, theta := q.K, q.Algo, q.Theta
	if k < 1 {
		return cacheKey{}, fmt.Errorf("server: k must be ≥ 1, got %d", k)
	}
	// Clamp k to the vertex count: k sizes result-set allocations all the
	// way down (topk.NewBounded and the search algorithms), so an absurd
	// query parameter must not translate into an absurd allocation.
	if n := int(snap.view.NumVertices()); k > n {
		k = n
	}
	approxKnobs := q.Eps != 0 || q.Conf != 0 || q.Seed != 0
	if algo == "" || algo == AlgoAuto {
		switch {
		case approxKnobs:
			algo = AlgoApprox
		case e.mode == ModeLazy:
			algo = AlgoLazy
			if e.lazy != nil && k > e.lazy.K() {
				algo = AlgoOpt // lazy set only holds its configured k
			}
		default:
			algo = AlgoScores
		}
	}
	if approxKnobs && algo != AlgoApprox {
		return cacheKey{}, fmt.Errorf("server: eps/conf/seed apply only to algo %q (got algo %q)", AlgoApprox, algo)
	}
	// θ: 0 (unset) selects the documented default; anything else below 1
	// is invalid — OptBSearch's pruning needs θ ≥ 1 — and is rejected
	// rather than silently rewritten, so a library caller asking for
	// θ=0.5 learns about it exactly like an HTTP caller does.
	switch {
	case theta == 0:
		theta = defaultTheta
	case theta < 1 || math.IsNaN(theta):
		return cacheKey{}, fmt.Errorf("server: theta must be ≥ 1 (got %v; 0 selects the default %v)", theta, defaultTheta)
	}
	key := cacheKey{k: k, algo: algo}
	if algo == AlgoOpt {
		key.thetaBits = math.Float64bits(theta)
	}
	if algo == AlgoApprox {
		eps, conf := q.Eps, q.Conf
		if eps == 0 {
			eps = approx.DefaultEps
		}
		if conf == 0 {
			conf = approx.DefaultConf
		}
		if !(eps > 0 && eps < 1) || math.IsNaN(eps) {
			return cacheKey{}, fmt.Errorf("server: eps must be in (0, 1), got %v", q.Eps)
		}
		if !(conf > 0 && conf < 1) || math.IsNaN(conf) {
			return cacheKey{}, fmt.Errorf("server: conf must be in (0, 1), got %v", q.Conf)
		}
		key.epsBits = math.Float64bits(eps)
		key.confBits = math.Float64bits(conf)
		if key.seed = q.Seed; key.seed == 0 {
			key.seed = approx.DefaultSeed
		}
	}
	return key, nil
}

// TopKQ answers a top-k query: resolve it to a cache key, answer from the
// snapshot's cache on a hit, otherwise run the key's algorithm — each one
// call on the snapshot's view. All strategies except AlgoLazy are served
// lock-free from the current snapshot; AlgoLazy consults the LazyTopK
// maintainer under the write lock (its Results() call mutates lazy state).
// AlgoApprox estimates are a pure function of (seed, vertex id, adjacency),
// so frozen and overlay snapshots of the same graph answer bit-identically.
// Answers are cached per (k, algo, θ, ε, δ, seed) in the snapshot they were
// computed against, so an epoch swap invalidates them wholesale.
func (r *Registry) TopKQ(name string, q TopKQuery) (TopKResult, error) {
	e, err := r.get(name)
	if err != nil {
		return TopKResult{}, err
	}
	snap := e.snap.Load()
	key, err := e.resolveQuery(snap, q)
	if err != nil {
		return TopKResult{}, err
	}

	if v, ok := snap.cache.Load(key); ok {
		e.cacheHits.Add(1)
		cr := v.(cachedResult)
		tr := e.topkResult(snap, key, true, cr)
		tr.hitBody = cr.hitBody
		return tr, nil
	}
	e.cacheMisses.Add(1)

	var cr cachedResult
	switch key.algo {
	case AlgoScores:
		if snap.scores == nil {
			return TopKResult{}, fmt.Errorf("server: algo %q needs mode %q (graph %q is %q)", AlgoScores, ModeLocal, name, e.mode)
		}
		cr.res = ego.TopKOf(snap.scores.Len(), snap.scores.At, key.k)
	case AlgoOpt:
		cr.res, _ = ego.OptBSearch(snap.view, key.k, math.Float64frombits(key.thetaBits))
	case AlgoBase:
		cr.res, _ = ego.BaseBSearch(snap.view, key.k)
	case AlgoApprox:
		res, st := approx.TopK(snap.view, key.k, approx.Options{
			Eps:  math.Float64frombits(key.epsBits),
			Conf: math.Float64frombits(key.confBits),
			Seed: key.seed, Workers: e.workers,
		})
		cr = cachedResult{res: res, samples: st.Samples, epsAchieved: st.EpsAchieved}
		e.approxQueries.Add(1)
		e.approxSamples.Add(st.Samples)
	case AlgoLazy:
		if e.lazy == nil {
			return TopKResult{}, fmt.Errorf("server: algo %q needs mode %q (graph %q is %q)", AlgoLazy, ModeLazy, name, e.mode)
		}
		if key.k > e.lazy.K() {
			return TopKResult{}, fmt.Errorf("server: algo %q serves k ≤ %d, got %d", AlgoLazy, e.lazy.K(), key.k)
		}
		// Results() refreshes stale members, i.e. mutates maintainer
		// state: take the write lock. Inside it no swap can happen, so
		// the snapshot reloaded here is the one the lazy set matches.
		e.mu.Lock()
		if e.removed {
			e.mu.Unlock()
			return TopKResult{}, notFound(name)
		}
		full := e.lazy.Results()
		snap = e.snap.Load()
		e.mu.Unlock()
		if key.k < len(full) {
			full = full[:key.k]
		}
		cr.res = full
	default:
		return TopKResult{}, fmt.Errorf("server: unknown algo %q", key.algo)
	}
	if key.k <= maxHitBodyK {
		cr.hitBody = encodeJSON(e.topkResult(snap, key, true, cr))
	}
	snap.cacheStore(key, cr)
	return e.topkResult(snap, key, false, cr), nil
}

// topkResult builds the payload for key's answer on s; the knobs it echoes
// are the resolved ones the key carries.
func (e *entry) topkResult(s *snapshot, key cacheKey, cached bool, cr cachedResult) TopKResult {
	tr := TopKResult{Graph: e.name, Epoch: s.epoch, K: key.k, Algo: key.algo, Cached: cached, Results: cr.res}
	switch key.algo {
	case AlgoOpt:
		tr.Theta = math.Float64frombits(key.thetaBits)
	case AlgoApprox:
		tr.Eps = math.Float64frombits(key.epsBits)
		tr.Conf = math.Float64frombits(key.confBits)
		tr.Seed = key.seed
		tr.ApproxSamples = cr.samples
		tr.ApproxEpsAchieved = cr.epsAchieved
	}
	return tr
}

// VertexResult is the per-vertex endpoint payload.
type VertexResult struct {
	Graph  string  `json:"graph"`
	Epoch  uint64  `json:"epoch"`
	V      int32   `json:"v"`
	CB     float64 `json:"cb"`
	Degree int32   `json:"degree"`
	Bound  float64 `json:"bound"` // Lemma 2 static upper bound d(d−1)/2
}

// egoScratch pools the recomputation scratch (vertex → local id table and
// the dense per-ego arrays of ego.EgoBetweenness) of the lock-free ModeLazy
// per-vertex read path, so the steady state allocates nothing per query.
// The scratch grows to any graph's vertex count and is safe to share
// across graphs; a sync.Pool keeps one per P under load.
var egoScratch = sync.Pool{New: func() any { return ego.NewScratch(0) }}

// EgoBetweenness answers a single-vertex query, lock-free on the current
// snapshot: from the frozen score vector in ModeLocal, by direct O(local)
// recomputation (with pooled scratch) in ModeLazy.
func (r *Registry) EgoBetweenness(name string, v int32) (VertexResult, error) {
	e, err := r.get(name)
	if err != nil {
		return VertexResult{}, err
	}
	snap := e.snap.Load()
	if v < 0 || v >= snap.view.NumVertices() {
		return VertexResult{}, fmt.Errorf("server: vertex %d out of range [0,%d)", v, snap.view.NumVertices())
	}
	var cb float64
	if snap.scores != nil {
		cb = snap.scores.At(v)
	} else {
		s := egoScratch.Get().(*ego.Scratch)
		cb = ego.EgoBetweenness(snap.view, v, s)
		egoScratch.Put(s)
	}
	d := snap.view.Degree(v)
	return VertexResult{Graph: e.name, Epoch: snap.epoch, V: v, CB: cb, Degree: d, Bound: ego.StaticUB(d)}, nil
}
