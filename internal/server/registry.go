package server

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/approx"
	"repro/internal/dynamic"
	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/store"
)

// Maintenance modes for a served graph.
const (
	// ModeLocal keeps the exact Maintainer (LocalInsert/LocalDelete):
	// every snapshot carries the exact score of every vertex, so top-k for
	// any k and per-vertex queries are O(1)-per-score reads. Costs the
	// evidence-map memory.
	ModeLocal = "local"
	// ModeLazy keeps the LazyTopK maintainer (LazyInsert/LazyDelete) for
	// one configured k: minimal memory, top-k answered from the lazily
	// maintained result set; other read shapes recompute on the snapshot.
	ModeLazy = "lazy"
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
// data that no writer will ever mutate: the graph view (a full CSR for
// epoch 1 and after compactions, a copy-on-write graph.Overlay for the
// cheap per-drain publications in between), the chunked copy-on-write score
// vector, and a result cache that lives and dies with the snapshot
// (swapping in a new snapshot is the cache invalidation).
type snapshot struct {
	epoch  uint64
	view   graph.View // *graph.Graph or *graph.Overlay
	scores *scoreVec  // exact CB per vertex at this epoch; nil in ModeLazy

	// relab is the degree-ordered relabeling of view (DESIGN.md §12),
	// non-nil only when the entry runs with relabeling and the view is a
	// fully compacted *graph.Graph — overlay snapshots keep it nil and the
	// search algorithms fall back to the external-id view. The recompute
	// algorithms (AlgoOpt/AlgoBase) run their kernels on relab.G, where hubs
	// occupy a dense low-id prefix, and translate back to external ids
	// through relab.Ext at extraction; everything else (scores, per-vertex
	// reads, stats, updates) stays in external-id space and never sees it.
	relab *graph.Relabeled

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
// telemetry — onto a different view of the same graph, carrying the
// relabeling that matches the new view (nil when it is an overlay).
// Compaction uses it to swap an overlay for its flattened CSR without
// changing what the snapshot answers. The result cache starts empty
// (sync.Map is not copyable); the entries were computed against an
// equivalent view, but re-deriving them is cheaper than a cache scheme
// that outlives snapshots.
func (s *snapshot) withView(v graph.View, relab *graph.Relabeled) *snapshot {
	return &snapshot{
		epoch: s.epoch, view: v, scores: s.scores, relab: relab,
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

// Acknowledgment modes for edge-update batches (DESIGN.md §9).
const (
	// AckDurable responds after the batch's group commit: the batch is in
	// the fsync'd WAL (on a durable registry) and the snapshot including it
	// is published. The default.
	AckDurable = "durable"
	// AckAsync responds on admission: the batch is queued for the writer
	// goroutine, its epoch pending. A crash between the ack and the group
	// commit loses the batch — the mode trades the durability guarantee for
	// enqueue-speed responses.
	AckAsync = "async"
)

// ErrBacklog marks an update rejected because the graph's admission queue
// is full — backpressure, not failure. The HTTP layer answers 429 with a
// Retry-After so well-behaved clients pace themselves.
var ErrBacklog = fmt.Errorf("write queue full")

// BacklogError is the concrete backpressure rejection: it matches ErrBacklog
// under errors.Is and carries the derived pacing hint — how long the queued
// work should take to drain — so the HTTP layer's Retry-After reflects the
// actual backlog instead of a constant.
type BacklogError struct {
	Graph      string
	Capacity   int
	RetryAfter time.Duration
}

func (b *BacklogError) Error() string {
	return fmt.Sprintf("server: graph %q: %v (capacity %d, retry in %v)",
		b.Graph, ErrBacklog, b.Capacity, b.RetryAfter)
}

// Is makes errors.Is(err, ErrBacklog) match, keeping every existing caller
// that tests for the sentinel working.
func (b *BacklogError) Is(target error) bool { return target == ErrBacklog }

// ErrReadOnly marks a mutation rejected because the registry runs as a
// read-only follower (WithLeader): graph loads, removals, and edge updates
// belong on the leader. The HTTP layer answers 403 with the leader's address
// so clients can redirect themselves.
var ErrReadOnly = fmt.Errorf("read-only replica")

// writeReq is one admitted edge batch waiting for the writer goroutine.
// done is nil for AckAsync (nobody listens); for AckDurable it carries the
// commit outcome and is buffered so the writer never blocks replying.
type writeReq struct {
	edges  [][2]int32
	insert bool
	// stamps carries one admission timestamp per edge (unix ms) on a
	// windowed graph's insert batches — client-provided or assigned at
	// admission — and rides the WAL record so every replay sees them.
	stamps []int64
	done   chan writeReply

	// res is filled by the writer inside the commit; carried here so the
	// group can be applied first and replied to as a whole afterwards.
	res UpdateResult
}

type writeReply struct {
	res UpdateResult
	err error
}

// reply delivers the outcome to a durable waiter; async requests drop it.
func (w *writeReq) reply(res UpdateResult, err error) {
	if w.done != nil {
		w.done <- writeReply{res: res, err: err}
	}
}

// entry is one served graph: the atomically swappable snapshot for readers,
// the mutable maintainer state for the writer side, and the write pipeline —
// a bounded admission queue drained by a dedicated writer goroutine that
// group-commits everything waiting (one WAL fsync, one snapshot publication
// per drain; DESIGN.md §9).
type entry struct {
	name    string
	mode    string
	workers int  // snapshot-build worker budget (≥ 1)
	relabel bool // degree-ordered relabeling on compacted views (DESIGN.md §12)

	// Compaction policy (DESIGN.md §10): flatten the overlay chain into a
	// fresh base CSR once its depth or its dirty-vertex share of n crosses
	// these bounds. The compactor runs in its own goroutine, off the write
	// path; compacting serializes it (one flatten at a time).
	maxDepth   int
	dirtyRatio float64
	compacting atomic.Bool

	snap atomic.Pointer[snapshot]

	// The admission queue. qmu guards qclosed against concurrent enqueues
	// (senders hold it shared, the closer exclusively — a channel must not
	// be closed under racing sends); stopped is closed when the writer
	// goroutine has drained the closed queue and exited.
	queue   chan *writeReq
	qmu     sync.RWMutex
	qclosed bool
	stopped chan struct{}
	flush   time.Duration // coalescing window after the first arrival

	// mu serializes all mutation of the maintainer state below and every
	// snapshot publication. Readers never take it.
	mu    sync.Mutex
	local *dynamic.Maintainer // ModeLocal
	lazy  *dynamic.LazyTopK   // ModeLazy

	// removed marks an entry whose Remove completed: the durable store is
	// gone, and any straggler that looked the entry up before the removal
	// must fail instead of touching (and resurrecting) the deleted state.
	// Guarded by mu.
	removed bool
	// failed poisons the pipeline after any durability failure — a WAL
	// append or checkpoint error (which poisons the store too) or an
	// injected server-level crash: once a commit aborted mid-flight,
	// in-memory and durable state may disagree, so further commits must
	// fail rather than diverge. Admission checks it so an ack=async
	// caller is rejected up front (ErrStorage) instead of being answered
	// 202 for a batch the dead pipeline would silently drop. Written only
	// by the writer goroutine, loaded lock-free by enqueuers.
	failed atomic.Pointer[error]

	// st is the graph's durable store (nil without WithDataDir). Set once
	// before the entry is published, used only under mu; sinceCkpt counts
	// the batches appended since the last durable checkpoint.
	st        *store.Store
	sinceCkpt int

	// How this entry's maintainer came to be at recovery: "fast" when the
	// snapshot's maintainer-state section was imported (O(load) boot),
	// "rebuild" when scores and evidence were recomputed from the graph, ""
	// for entries that were never recovered. recoverReason says why a
	// rebuild happened. Set once in recoverOne before the entry is
	// published, immutable after.
	recoverPath   string
	recoverReason string

	// Accounting. Atomics, written from both read and write paths.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	inserts     atomic.Int64
	deletes     atomic.Int64

	// Approximate-tier accounting: AlgoApprox queries computed (cache hits
	// excluded) and the pair samples they drew in total.
	approxQueries atomic.Int64
	approxSamples atomic.Int64

	// Write-pipeline accounting: drains committed, batches carried by them
	// (coalescedBatches/groupCommits is the amortization factor), and
	// admissions rejected by backpressure.
	groupCommits     atomic.Int64
	coalescedBatches atomic.Int64
	writeRejects     atomic.Int64

	// Snapshot-publication accounting (DESIGN.md §10): compactions folded
	// (background or checkpoint-forced), the last compaction's wall-clock,
	// and the score entries the copy-on-write vector materialized across
	// all drains (chunk granularity — a drain that changed nothing adds 0).
	compactions   atomic.Int64
	lastCompactNs atomic.Int64
	scoresCopied  atomic.Int64

	// Lock-free mirrors of the store's accounting, refreshed after every
	// durable operation so GraphInfo never has to take mu.
	walSeq   atomic.Uint64
	walBytes atomic.Int64
	snapSeq  atomic.Uint64
	ckpts    atomic.Int64

	// Sliding-window serving (DESIGN.md §14). window > 0 makes the entry
	// temporal: inserts are stamped at admission (client stamp or receive
	// time), tidx keeps the edge→stamp sidecar, and every leader drain first
	// synthesizes a delete batch of the edges older than now−window, WAL'd
	// ahead of the group so durability, recovery, and replicas all see
	// expiry as ordinary replayed history. window and nowMS are set before
	// the entry is published and immutable after; tidx is guarded by mu.
	window time.Duration
	tidx   *graph.TemporalIndex
	nowMS  func() int64

	// Expiry accounting: edges expired and expiry batches synthesized by
	// this process, and the smallest live stamp (0 = no stamped edges) —
	// refreshed after every drain so GraphInfo derives the oldest edge's
	// age lock-free.
	expiredEdges  atomic.Int64
	expiryBatches atomic.Int64
	oldestStamp   atomic.Int64

	// Replication state (DESIGN.md §13). replica marks an entry driven by
	// WAL shipping instead of client writes (set once before publication).
	// replSeq is the last shipped batch sequence applied locally (the
	// walSeq mirror's equivalent for memory-only replicas); replLeaderSeq
	// the leader's durable sequence as of the last poll; replCaughtNano the
	// wall clock of the last caught-up poll — together they derive the
	// staleness figures GraphInfo reports, all lock-free.
	replica        bool
	replSeq        atomic.Uint64
	replLeaderSeq  atomic.Uint64
	replCaughtNano atomic.Int64
}

// ErrDuplicate marks an Add that lost to an existing graph of the same
// name, so the HTTP layer can distinguish a genuine conflict (409) from
// plain request validation failures (400).
var ErrDuplicate = fmt.Errorf("graph name already exists")

// ErrStorage marks a durability failure (WAL append, fsync, checkpoint) on
// an otherwise valid request, so the HTTP layer can answer 500 — the
// server's disk, not the client's request, is at fault.
var ErrStorage = fmt.Errorf("storage failure")

// maxBatchGrowth bounds how far one edge batch may grow the vertex set
// beyond the current maximum id. The maintainers grow the vertex set to
// max(u,v)+1 on insert, so without a bound a single request naming vertex
// 2e9 would allocate tens of gigabytes under the write lock.
const maxBatchGrowth = 4096

// Default checkpoint policy: snapshot + WAL truncation after this many
// batches or this many WAL bytes, whichever comes first.
const (
	defaultCheckpointBatches = 16
	defaultCheckpointBytes   = 4 << 20
)

// Default write-pipeline tuning: admission-queue capacity, which is also the
// largest group one drain may commit.
const defaultWriteQueue = 128

// Default compaction policy: flatten the overlay chain once it is this many
// layers deep or once its dirty vertices reach this share of n, whichever
// trips first. Depth bounds the chain walk a read pays on a delta miss;
// the ratio bounds the memory the deltas duplicate.
const (
	defaultCompactDepth = 8
	defaultCompactDirty = 0.25
)

// Registry is a named collection of served graphs. Lookup is guarded by a
// read-write mutex; everything per-graph uses the entry's own scheme.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	workers int // snapshot-build worker budget applied to new graphs

	// Write pipeline (DESIGN.md §9).
	queueCap int
	flush    time.Duration

	// Overlay compaction policy (DESIGN.md §10).
	compactDepth int
	compactDirty float64

	// Degree-ordered relabeling (DESIGN.md §12).
	relabel bool

	// Persistence (DESIGN.md §8). Empty dataDir means in-memory only.
	dataDir     string
	ckptBatches int
	ckptBytes   int64
	crashHook   func(graph, point string) error

	// Replication (DESIGN.md §13). A non-empty leader URL makes this
	// registry a read-only follower: client mutations are rejected with
	// ErrReadOnly, and graphs arrive through the Target methods instead.
	leader string

	// Sliding-window serving (DESIGN.md §14): the default window applied to
	// graphs created without an explicit one (0 = unwindowed), and the
	// clock that stamps admissions and drives expiry cutoffs — wall clock
	// in production, injectable for deterministic tests.
	window time.Duration
	nowMS  func() int64

	// Approximate tier defaults (DESIGN.md §15): the ε / confidence an
	// AlgoApprox query gets when it leaves the knobs unset. Zero values
	// fall through to the package defaults (approx.DefaultEps/DefaultConf).
	approxEps  float64
	approxConf float64
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

// WithBuildWorkers sets the worker budget used to build graph snapshots:
// the initial all-vertices computation runs on the EdgePEBW parallel engine
// and the per-batch CSR export shards its row copy across this many
// goroutines. n ≤ 0 selects GOMAXPROCS.
func WithBuildWorkers(n int) RegistryOption {
	return func(r *Registry) { r.workers = n }
}

// WithApproxDefaults sets the ε / confidence that AlgoApprox queries get
// when they leave the knobs unset (0 keeps the package defaults). Values
// must lie in (0, 1); anything else is ignored rather than half-applied,
// matching how queries themselves are validated.
func WithApproxDefaults(eps, conf float64) RegistryOption {
	return func(r *Registry) {
		if eps > 0 && eps < 1 {
			r.approxEps = eps
		}
		if conf > 0 && conf < 1 {
			r.approxConf = conf
		}
	}
}

// WithDataDir makes the registry durable: every graph gets a WAL + snapshot
// store under dir, every update batch is logged before it is applied, and
// Recover reloads the whole registry after a restart or crash.
func WithDataDir(dir string) RegistryOption {
	return func(r *Registry) { r.dataDir = dir }
}

// WithCheckpointPolicy sets when a graph's WAL is folded into a fresh
// snapshot and truncated: after batches update batches or once the WAL
// exceeds bytes, whichever comes first. Non-positive values keep the
// defaults (16 batches, 4 MiB).
func WithCheckpointPolicy(batches int, bytes int64) RegistryOption {
	return func(r *Registry) {
		if batches > 0 {
			r.ckptBatches = batches
		}
		if bytes > 0 {
			r.ckptBytes = bytes
		}
	}
}

// WithWriteQueue sets the per-graph admission-queue capacity: how many
// update batches may wait for the writer goroutine before new admissions
// are rejected with ErrBacklog (HTTP 429). n ≤ 0 keeps the default (128).
func WithWriteQueue(n int) RegistryOption {
	return func(r *Registry) {
		if n > 0 {
			r.queueCap = n
		}
	}
}

// WithFlushInterval sets the group-commit coalescing window: after the
// first batch of a drain arrives, the writer waits up to d for more
// batches before committing the group. Zero (the default) commits whatever
// is already queued without waiting — lowest latency, with coalescing
// arising naturally under concurrent load; a positive window trades
// latency for larger groups on trickle workloads.
func WithFlushInterval(d time.Duration) RegistryOption {
	return func(r *Registry) {
		if d > 0 {
			r.flush = d
		}
	}
}

// WithCompactPolicy sets when a graph's overlay chain is flattened into a
// fresh base CSR by the background compactor: once the chain is maxDepth
// layers deep, or once the dirty vertices across the chain reach dirtyRatio
// of the vertex count, whichever trips first. Non-positive values keep the
// defaults (depth 8, ratio 0.25). Depth 1 compacts after every drain —
// useful to benchmark the pre-overlay behavior, since every read then runs
// on a full CSR.
func WithCompactPolicy(maxDepth int, dirtyRatio float64) RegistryOption {
	return func(r *Registry) {
		if maxDepth > 0 {
			r.compactDepth = maxDepth
		}
		if dirtyRatio > 0 {
			r.compactDirty = dirtyRatio
		}
	}
}

// WithRelabeling toggles degree-ordered vertex relabeling on graphs this
// registry serves (DESIGN.md §12). When on, every fully compacted snapshot
// carries a permuted twin of its CSR in which vertices are renumbered by
// non-increasing degree, so hubs occupy a dense low-id prefix: bitset
// registers mark and intersect over short spans and the hottest adjacency
// rows pack together. The recompute top-k algorithms (algo=opt, algo=base)
// run on the permuted CSR and translate back at extraction; external ids —
// what updates name and queries return — never change, and results are
// bitwise identical with relabeling on or off. Checkpoints persist the
// permutation so recovery reuses the exact internal layout.
func WithRelabeling(on bool) RegistryOption {
	return func(r *Registry) { r.relabel = on }
}

// WithLeader makes the registry a read-only follower of the leader at url:
// Add, Remove, and ApplyEdgesAck reject with ErrReadOnly (the HTTP layer
// maps that to 403 plus the leader's address), while the ship.Target methods
// — InstallReplica, ApplyReplica — keep the served graphs converging on the
// leader's WAL stream. Reads are unrestricted; that is the point.
func WithLeader(url string) RegistryOption {
	return func(r *Registry) { r.leader = url }
}

// WithWindow sets the default sliding window applied to graphs created
// without an explicit one: edges older than window are expired by the
// graph's writer goroutine through WAL-recorded delete batches (DESIGN.md
// §14). Zero (the default) serves graphs unwindowed. A per-graph window on
// create overrides this default.
func WithWindow(d time.Duration) RegistryOption {
	return func(r *Registry) {
		if d > 0 {
			r.window = d
		}
	}
}

// WithClock replaces the wall clock that stamps admitted edges and drives
// expiry cutoffs with now (a unix-milliseconds function). It exists so
// tests can advance time deterministically; production uses the default
// wall clock.
func WithClock(now func() int64) RegistryOption {
	return func(r *Registry) {
		if now != nil {
			r.nowMS = now
		}
	}
}

// WithCrashHook installs a crash-injection hook on every graph store,
// invoked at each durability point with the graph name; a non-nil return
// aborts the operation exactly there, leaving the files as a real crash
// would. It exists for the crash-recovery test harness.
func WithCrashHook(h func(graph, point string) error) RegistryOption {
	return func(r *Registry) { r.crashHook = h }
}

// NewRegistry returns an empty registry. The default snapshot-build worker
// budget is GOMAXPROCS.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		entries:     make(map[string]*entry),
		ckptBatches: defaultCheckpointBatches,
		ckptBytes:   defaultCheckpointBytes,
	}
	for _, o := range opts {
		o(r)
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if r.queueCap <= 0 {
		r.queueCap = defaultWriteQueue
	}
	if r.compactDepth <= 0 {
		r.compactDepth = defaultCompactDepth
	}
	if r.compactDirty <= 0 {
		r.compactDirty = defaultCompactDirty
	}
	if r.nowMS == nil {
		r.nowMS = func() int64 { return time.Now().UnixMilli() }
	}
	return r
}

// newEntry builds an unpublished entry with its write pipeline initialized
// (the writer goroutine starts separately, once the entry is registered).
func (r *Registry) newEntry(name, mode string) *entry {
	return &entry{
		name: name, mode: mode, workers: r.workers,
		relabel:    r.relabel,
		maxDepth:   r.compactDepth,
		dirtyRatio: r.compactDirty,
		queue:      make(chan *writeReq, r.queueCap),
		stopped:    make(chan struct{}),
		flush:      r.flush,
		nowMS:      r.nowMS,
	}
}

// Leader returns the leader URL this registry follows, or "" when it is a
// writable leader itself.
func (r *Registry) Leader() string { return r.leader }

// readOnlyErr rejects a client mutation on a follower registry.
func (r *Registry) readOnlyErr(op string) error {
	if r.leader == "" {
		return nil
	}
	return fmt.Errorf("server: %s: %w (leader: %s)", op, ErrReadOnly, r.leader)
}

// get returns the entry for name.
func (r *Registry) get(name string) (*entry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server: no graph named %q", name)
	}
	return e, nil
}

// Names lists the registered graphs, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Add registers g under name with the given maintenance mode (lazyK applies
// to ModeLazy), using the registry's default sliding window (usually none).
// Building the maintainer computes all initial scores, which for ModeLocal
// also populates the first snapshot's score vector.
func (r *Registry) Add(name string, g *graph.Graph, mode string, lazyK int) (GraphInfo, error) {
	return r.AddWindowed(name, g, mode, lazyK, r.window)
}

// AddWindowed is Add with an explicit sliding window: window > 0 makes the
// graph temporal — every initial edge is stamped with the creation time,
// admitted inserts are stamped on arrival, and the writer goroutine expires
// edges older than now−window through WAL-recorded delete batches (DESIGN.md
// §14). window == 0 serves the graph unwindowed regardless of the registry
// default. A window must be at least the group-commit flush interval: a
// shorter one would expire edges faster than drains occur, so it is rejected
// up front (the HTTP layer answers 400).
func (r *Registry) AddWindowed(name string, g *graph.Graph, mode string, lazyK int, window time.Duration) (GraphInfo, error) {
	if window < 0 {
		return GraphInfo{}, fmt.Errorf("server: window must be non-negative, got %v", window)
	}
	if window > 0 && window < time.Millisecond {
		return GraphInfo{}, fmt.Errorf("server: window %v is below the 1ms stamp resolution", window)
	}
	if window > 0 && window < r.flush {
		return GraphInfo{}, fmt.Errorf("server: window %v is shorter than the flush interval %v (edges would expire before the drain that admitted them)", window, r.flush)
	}
	if name == "" {
		return GraphInfo{}, fmt.Errorf("server: graph name must be non-empty")
	}
	if mode == "" {
		mode = ModeLocal
	}
	if mode != ModeLocal && mode != ModeLazy {
		return GraphInfo{}, fmt.Errorf("server: unknown mode %q (want %q or %q)", mode, ModeLocal, ModeLazy)
	}
	if err := r.readOnlyErr("load graph"); err != nil {
		return GraphInfo{}, err
	}
	// Building a maintainer computes every vertex's score — the most
	// expensive operation here — so fail the common duplicate case before
	// paying it. The final insert below re-checks under the write lock.
	r.mu.RLock()
	_, dup := r.entries[name]
	r.mu.RUnlock()
	if dup {
		return GraphInfo{}, fmt.Errorf("server: graph %q: %w", name, ErrDuplicate)
	}

	e := r.newEntry(name, mode)
	var initStamps *store.TemporalState
	if window > 0 {
		// Every edge of a windowed graph carries a stamp from birth: the
		// initial load is stamped with the creation time, and the stamps are
		// persisted alongside the first snapshot so a crash before the first
		// checkpoint still recovers a graph that keeps expiring correctly.
		e.window = window
		e.tidx = graph.NewTemporalIndex(int64(window / time.Millisecond))
		now := e.nowMS()
		g.EachEdge(func(u, v int32) bool {
			e.tidx.Stamp(u, v, now)
			return true
		})
		stamps, err := e.tidx.ExportStamps(g)
		if err != nil {
			return GraphInfo{}, fmt.Errorf("server: graph %q: %w", name, err)
		}
		initStamps = &store.TemporalState{WindowMS: uint64(window / time.Millisecond), Stamps: stamps}
		e.refreshTemporalLocked()
	}
	first := &snapshot{epoch: 1, view: g, buildWorkers: e.workers}
	t0 := time.Now()
	first.relab = e.makeRelab(g)
	if mode == ModeLocal {
		e.local = dynamic.NewMaintainerParallel(g, e.workers)
		first.scores = newScoreVec(e.local.All())
	} else {
		if lazyK < 1 {
			lazyK = 10
		}
		e.lazy = dynamic.NewLazyTopKParallel(g, lazyK, e.workers)
	}
	first.publishDur = time.Since(t0)
	// The initial all-vertices build is the moral equivalent of a
	// compaction: it produced the base CSR every later overlay sits on.
	e.lastCompactNs.Store(first.publishDur.Nanoseconds())
	e.snap.Store(first)

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return GraphInfo{}, fmt.Errorf("server: graph %q: %w", name, ErrDuplicate)
	}
	// Creating the store under r.mu keeps the name-reservation and the
	// directory creation atomic (two racing Adds must not both write the
	// same directory); the cost is one snapshot write while lookups wait.
	if r.dataDir != "" {
		st, err := store.CreateWithStamps(store.GraphDir(r.dataDir, name), g,
			e.persistMeta(0), initStamps, r.storeOptions(name)...)
		if err != nil {
			return GraphInfo{}, fmt.Errorf("server: graph %q: %w", name, err)
		}
		e.st = st
		e.mirrorPersist()
	}
	r.entries[name] = e
	go e.writerLoop(r)
	return e.info(), nil
}

// Remove drops the named graph, deleting its durable store (if any) with it.
//
// Ordering is the use-after-Remove fix: first unregister the name (new
// lookups fail), then close the admission queue and wait for the writer
// goroutine to drain and acknowledge every batch admitted before the close,
// and only then mark the entry removed and delete the store. A straggler
// that looked the entry up before the removal finds the queue closed (a
// writer) or the removed flag set (a lazy reader) and fails with not-found —
// it can no longer append to or checkpoint into the deleted directory,
// resurrecting it on disk.
func (r *Registry) Remove(name string) error {
	if err := r.readOnlyErr("remove graph"); err != nil {
		return err
	}
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("server: no graph named %q", name)
	}
	delete(r.entries, name)
	r.mu.Unlock()

	e.closeWrites()
	<-e.stopped

	e.mu.Lock()
	defer e.mu.Unlock()
	e.removed = true
	if e.st != nil {
		if err := e.st.Remove(); err != nil {
			return fmt.Errorf("server: graph %q: remove store: %w", name, err)
		}
	}
	return nil
}

// closeWrites shuts the admission queue: no new batch gets in, and the
// writer goroutine drains what was already admitted, then exits (closing
// e.stopped). Idempotent.
func (e *entry) closeWrites() {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if !e.qclosed {
		e.qclosed = true
		close(e.queue)
	}
}

// enqueue admits one batch into the write pipeline, failing fast when the
// graph is gone (not-found) or the queue is full (ErrBacklog). The shared
// qmu hold makes the closed-check-then-send atomic against closeWrites.
func (e *entry) enqueue(req *writeReq) error {
	e.qmu.RLock()
	defer e.qmu.RUnlock()
	if e.qclosed {
		return fmt.Errorf("server: no graph named %q", e.name)
	}
	if perr := e.failed.Load(); perr != nil {
		return fmt.Errorf("server: graph %q: %w: pipeline poisoned by earlier failure: %w", e.name, ErrStorage, *perr)
	}
	select {
	case e.queue <- req:
		return nil
	default:
		e.writeRejects.Add(1)
		return &BacklogError{Graph: e.name, Capacity: cap(e.queue), RetryAfter: e.retryAfter()}
	}
}

// retryAfter estimates how long a rejected writer should wait: the queued
// batches drain in ceil(depth/capacity) group commits, each taking at least
// the coalescing window. The 1s floor keeps the hint meaningful when the
// window is zero (drains are then bounded by fsync + publication, which the
// estimate cannot see); the 60s cap keeps a pathological configuration from
// parking clients for minutes.
func (e *entry) retryAfter() time.Duration {
	drains := (len(e.queue) + cap(e.queue) - 1) / cap(e.queue)
	est := time.Duration(drains) * e.flush
	if est < time.Second {
		return time.Second
	}
	if est > 60*time.Second {
		return 60 * time.Second
	}
	return est
}

// GraphInfo summarizes one served graph.
//
// PublishMS is how long the currently served snapshot's publication took:
// the initial all-vertices computation for epoch 1, the O(batch) overlay
// publication inside the write lock for later epochs. CompactMS is the last
// compaction's wall-clock — the O(n+m) flatten of the overlay chain into a
// fresh base CSR, run off the write path (or forced synchronously by a
// checkpoint). BuildWorkers is the worker budget compactions and freezes
// shard across.
type GraphInfo struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode"`
	Epoch        uint64  `json:"epoch"`
	N            int32   `json:"n"`
	M            int64   `json:"m"`
	LazyK        int     `json:"lazy_k,omitempty"`
	BuildWorkers int     `json:"build_workers"`
	PublishMS    float64 `json:"publish_ms"`
	CompactMS    float64 `json:"compact_ms"`

	// Relabeled reports whether the graph serves with degree-ordered
	// relabeling (DESIGN.md §12): recompute queries run on a permuted CSR
	// whose dense low ids are the hubs, translated back at extraction.
	Relabeled bool `json:"relabeled,omitempty"`

	// Overlay accounting (DESIGN.md §10): how many delta layers the served
	// view stacks on its base CSR (0 = fully compacted), the dirty-vertex
	// total across those layers, how many compactions have folded the chain
	// since this process opened the graph, and how many score entries the
	// ModeLocal copy-on-write vector materialized across all drains (chunk
	// granularity; a drain that changed no score adds 0).
	OverlayDepth  int   `json:"overlay_depth"`
	DirtyVertices int   `json:"dirty_vertices,omitempty"`
	Compactions   int64 `json:"compactions"`
	ScoresCopied  int64 `json:"scores_copied,omitempty"`

	// Write-pipeline accounting (DESIGN.md §9): the admission queue's
	// capacity and current depth, how many group commits the writer
	// goroutine has published, how many batches those groups carried
	// (coalesced/commits is the fsync+snapshot amortization factor), and
	// how many admissions backpressure rejected.
	WriteQueueCap    int   `json:"write_queue_cap"`
	WriteQueueDepth  int   `json:"write_queue_depth"`
	GroupCommits     int64 `json:"group_commits"`
	CoalescedBatches int64 `json:"coalesced_batches"`
	WriteRejects     int64 `json:"write_rejects,omitempty"`

	// Persistence accounting (WithDataDir only): the last durable WAL batch
	// sequence, the current WAL size, the sequence folded into the on-disk
	// snapshot, and the checkpoints taken since this process opened the
	// graph.
	Persisted   bool   `json:"persisted,omitempty"`
	WALSeq      uint64 `json:"wal_seq,omitempty"`
	WALBytes    int64  `json:"wal_bytes,omitempty"`
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	Checkpoints int64  `json:"checkpoints,omitempty"`

	// Sliding-window accounting (set only on windowed graphs, DESIGN.md
	// §14): the configured window, how many edges this process expired and
	// in how many synthesized expiry batches (leader-side; followers apply
	// the leader's expiry deletes as ordinary replayed deletes), and the age
	// of the oldest live edge — the retention bound a read here exhibits.
	Window          string  `json:"window,omitempty"`
	ExpiredEdges    int64   `json:"expired_edges,omitempty"`
	ExpiryBatches   int64   `json:"expiry_batches,omitempty"`
	OldestEdgeAgeMS float64 `json:"oldest_edge_age_ms,omitempty"`

	// Replication accounting (set only on follower-side entries, DESIGN.md
	// §13): ReplicaLagSeq is how many durable leader batches the local state
	// has not applied yet as of the last shipping poll, and ReplicaLagMS how
	// long ago the replica was last fully caught up — 0/absent while it is.
	// Together they bound the staleness a read served here can exhibit.
	Replica       bool    `json:"replica,omitempty"`
	ReplicaLagSeq uint64  `json:"replica_lag_seq,omitempty"`
	ReplicaLagMS  float64 `json:"replica_lag_ms,omitempty"`

	// Approximate-tier accounting (set once an AlgoApprox query has run):
	// queries computed on this entry (cache hits excluded) and the total
	// pair samples they drew.
	ApproxQueries int64 `json:"approx_queries,omitempty"`
	ApproxSamples int64 `json:"approx_samples,omitempty"`

	// Recovery accounting (set only on entries that came up via Recover):
	// "fast" when the checkpoint's maintainer-state section was imported
	// instead of recomputed, "rebuild" otherwise, with the reason for the
	// rebuild (version skew, corruption, pre-state-section snapshot, …).
	RecoverPath   string `json:"recover_path,omitempty"`
	RecoverReason string `json:"recover_reason,omitempty"`
}

func (e *entry) info() GraphInfo {
	return e.infoAt(e.snap.Load())
}

// infoAt summarizes the entry against one specific snapshot, so callers that
// already hold a snapshot report a single consistent epoch.
func (e *entry) infoAt(s *snapshot) GraphInfo {
	gi := GraphInfo{
		Name: e.name, Mode: e.mode, Epoch: s.epoch,
		N: s.view.NumVertices(), M: s.view.NumEdges(),
		Relabeled:        e.relabel,
		BuildWorkers:     s.buildWorkers,
		PublishMS:        float64(s.publishDur.Microseconds()) / 1000,
		CompactMS:        float64(e.lastCompactNs.Load()) / 1e6,
		Compactions:      e.compactions.Load(),
		ScoresCopied:     e.scoresCopied.Load(),
		WriteQueueCap:    cap(e.queue),
		WriteQueueDepth:  len(e.queue),
		GroupCommits:     e.groupCommits.Load(),
		CoalescedBatches: e.coalescedBatches.Load(),
		WriteRejects:     e.writeRejects.Load(),
	}
	if ov := s.overlay(); ov != nil {
		gi.OverlayDepth = ov.Depth()
		gi.DirtyVertices = ov.DirtyVertices()
	}
	if e.lazy != nil {
		gi.LazyK = e.lazy.K()
	}
	if e.st != nil {
		gi.Persisted = true
		gi.WALSeq = e.walSeq.Load()
		gi.WALBytes = e.walBytes.Load()
		gi.SnapshotSeq = e.snapSeq.Load()
		gi.Checkpoints = e.ckpts.Load()
	}
	if e.window > 0 {
		gi.Window = e.window.String()
		gi.ExpiredEdges = e.expiredEdges.Load()
		gi.ExpiryBatches = e.expiryBatches.Load()
		if oldest := e.oldestStamp.Load(); oldest != noOldestStamp {
			if age := e.nowMS() - oldest; age > 0 {
				gi.OldestEdgeAgeMS = float64(age)
			}
		}
	}
	if e.replica {
		gi.Replica = true
		rs := e.replSeq.Load()
		if ls := e.replLeaderSeq.Load(); ls > rs {
			gi.ReplicaLagSeq = ls - rs
			if t := e.replCaughtNano.Load(); t > 0 {
				gi.ReplicaLagMS = float64(time.Now().UnixNano()-t) / 1e6
			}
		}
	}
	gi.ApproxQueries = e.approxQueries.Load()
	gi.ApproxSamples = e.approxSamples.Load()
	gi.RecoverPath = e.recoverPath
	gi.RecoverReason = e.recoverReason
	return gi
}

// Info returns the summary of one graph.
func (r *Registry) Info(name string) (GraphInfo, error) {
	e, err := r.get(name)
	if err != nil {
		return GraphInfo{}, err
	}
	return e.info(), nil
}

// Infos returns the summaries of all graphs, sorted by name.
func (r *Registry) Infos() []GraphInfo {
	names := r.Names()
	out := make([]GraphInfo, 0, len(names))
	for _, n := range names {
		if gi, err := r.Info(n); err == nil {
			out = append(out, gi)
		}
	}
	return out
}

// GraphStats is the stats endpoint payload: snapshot statistics plus the
// serving-side accounting.
type GraphStats struct {
	GraphInfo
	DMax        int32   `json:"dmax"`
	AvgDeg      float64 `json:"avg_degree"`
	Triangles   int64   `json:"triangles"`
	Inserts     int64   `json:"inserts"`
	Deletes     int64   `json:"deletes"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
}

// Stats gathers the stats payload for name. The structural part is computed
// on (and cached in) the current snapshot, so it never blocks writers.
func (r *Registry) Stats(name string) (GraphStats, error) {
	e, err := r.get(name)
	if err != nil {
		return GraphStats{}, err
	}
	s := e.snap.Load()
	st := s.Stats()
	return GraphStats{
		GraphInfo:   e.infoAt(s),
		DMax:        st.DMax,
		AvgDeg:      st.AvgDeg,
		Triangles:   st.Triangles,
		Inserts:     e.inserts.Load(),
		Deletes:     e.deletes.Load(),
		CacheHits:   e.cacheHits.Load(),
		CacheMisses: e.cacheMisses.Load(),
	}, nil
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
// documented defaults (θ → defaultTheta; ε / Conf → the registry's
// WithApproxDefaults values or the approx package defaults; Seed →
// approx.DefaultSeed). Eps/Conf/Seed apply only to AlgoApprox — setting
// any of them steers an auto query to the approx tier, and combining them
// with an explicit exact algo is rejected.
type TopKQuery struct {
	K     int
	Algo  string
	Theta float64
	Eps   float64
	Conf  float64
	Seed  uint64
}

// TopK answers a top-k query with default approx knobs; see TopKQuery.
func (r *Registry) TopK(name string, k int, algo string, theta float64) (TopKResult, error) {
	return r.TopKQ(name, TopKQuery{K: k, Algo: algo, Theta: theta})
}

// TopKQ answers a top-k query. algo "auto" (or "") picks the cheapest
// exact strategy for the graph's mode — or the approx tier when an approx
// knob is set explicitly. All strategies except AlgoLazy are served
// lock-free from the current snapshot; AlgoLazy consults the LazyTopK
// maintainer under the write lock (its Results() call mutates lazy
// state). AlgoApprox always runs on the snapshot's external-id view (never
// the relabeled CSR), which with per-vertex seeded sample streams makes
// its answers identical across frozen, overlay, and relabeled snapshots of
// the same graph. Answers are cached per (k, algo, θ, ε, δ, seed) in the
// snapshot they were computed against, so an epoch swap invalidates them
// wholesale.
func (r *Registry) TopKQ(name string, q TopKQuery) (TopKResult, error) {
	e, err := r.get(name)
	if err != nil {
		return TopKResult{}, err
	}
	k, algo, theta := q.K, q.Algo, q.Theta
	if k < 1 {
		return TopKResult{}, fmt.Errorf("server: k must be ≥ 1, got %d", k)
	}
	snap := e.snap.Load()
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
		return TopKResult{}, fmt.Errorf("server: eps/conf/seed apply only to algo %q (got algo %q)", AlgoApprox, algo)
	}
	// θ: 0 (unset) selects the documented default; anything else below 1
	// is invalid — OptBSearch's pruning needs θ ≥ 1 — and is rejected
	// rather than silently rewritten, so a library caller asking for
	// θ=0.5 learns about it exactly like an HTTP caller does.
	switch {
	case theta == 0:
		theta = defaultTheta
	case theta < 1 || math.IsNaN(theta):
		return TopKResult{}, fmt.Errorf("server: theta must be ≥ 1 (got %v; 0 selects the default %v)", theta, defaultTheta)
	}
	// Approx knobs: resolve defaults before building the cache key, so a
	// query that spells the default out and one that leaves it unset share
	// an entry; out-of-range values are rejected like a bad θ is.
	eps, conf, seed := q.Eps, q.Conf, q.Seed
	if algo == AlgoApprox {
		if eps == 0 {
			if eps = r.approxEps; eps == 0 {
				eps = approx.DefaultEps
			}
		}
		if conf == 0 {
			if conf = r.approxConf; conf == 0 {
				conf = approx.DefaultConf
			}
		}
		if seed == 0 {
			seed = approx.DefaultSeed
		}
		if !(eps > 0 && eps < 1) || math.IsNaN(eps) {
			return TopKResult{}, fmt.Errorf("server: eps must be in (0, 1), got %v", q.Eps)
		}
		if !(conf > 0 && conf < 1) || math.IsNaN(conf) {
			return TopKResult{}, fmt.Errorf("server: conf must be in (0, 1), got %v", q.Conf)
		}
	}
	key := cacheKey{k: k, algo: algo}
	if algo == AlgoOpt {
		key.thetaBits = math.Float64bits(theta)
	}
	if algo == AlgoApprox {
		key.epsBits = math.Float64bits(eps)
		key.confBits = math.Float64bits(conf)
		key.seed = seed
	}

	if v, ok := snap.cache.Load(key); ok {
		e.cacheHits.Add(1)
		cr := v.(cachedResult)
		tr := e.topkResult(snap, key, theta, eps, conf, true, cr)
		tr.hitBody = cr.hitBody
		return tr, nil
	}
	e.cacheMisses.Add(1)

	var cr cachedResult
	switch algo {
	case AlgoScores:
		if snap.scores == nil {
			return TopKResult{}, fmt.Errorf("server: algo %q needs mode %q (graph %q is %q)", AlgoScores, ModeLocal, name, e.mode)
		}
		cr.res = ego.TopKOf(snap.scores.Len(), snap.scores.At, k)
	case AlgoOpt:
		if rl := snap.relab; rl != nil {
			cr.res, _ = ego.OptBSearchLabeled(rl.G, k, theta, rl.Ext)
		} else {
			cr.res, _ = ego.OptBSearch(snap.view, k, theta)
		}
	case AlgoBase:
		if rl := snap.relab; rl != nil {
			cr.res, _ = ego.BaseBSearchLabeled(rl.G, k, rl.Ext)
		} else {
			cr.res, _ = ego.BaseBSearch(snap.view, k)
		}
	case AlgoApprox:
		// Always the external-id view: estimates are a pure function of
		// (seed, external vertex id, adjacency), so frozen, overlay, and
		// relabeled snapshots of the same graph answer bit-identically.
		res, st := approx.TopK(snap.view, k, approx.Options{
			Eps: eps, Conf: conf, Seed: seed, Workers: e.workers,
		})
		cr = cachedResult{res: res, samples: st.Samples, epsAchieved: st.EpsAchieved}
		e.approxQueries.Add(1)
		e.approxSamples.Add(st.Samples)
	case AlgoLazy:
		if e.lazy == nil {
			return TopKResult{}, fmt.Errorf("server: algo %q needs mode %q (graph %q is %q)", AlgoLazy, ModeLazy, name, e.mode)
		}
		if k > e.lazy.K() {
			return TopKResult{}, fmt.Errorf("server: algo %q serves k ≤ %d, got %d", AlgoLazy, e.lazy.K(), k)
		}
		// Results() refreshes stale members, i.e. mutates maintainer
		// state: take the write lock. Inside it no swap can happen, so
		// the snapshot reloaded here is the one the lazy set matches.
		e.mu.Lock()
		if e.removed {
			e.mu.Unlock()
			return TopKResult{}, fmt.Errorf("server: no graph named %q", name)
		}
		full := e.lazy.Results()
		snap = e.snap.Load()
		e.mu.Unlock()
		if k < len(full) {
			full = full[:k]
		}
		cr.res = full
	default:
		return TopKResult{}, fmt.Errorf("server: unknown algo %q", algo)
	}
	if key.k <= maxHitBodyK {
		cr.hitBody = encodeJSON(e.topkResult(snap, key, theta, eps, conf, true, cr))
	}
	snap.cacheStore(key, cr)
	return e.topkResult(snap, key, theta, eps, conf, false, cr), nil
}

func (e *entry) topkResult(s *snapshot, key cacheKey, theta, eps, conf float64, cached bool, cr cachedResult) TopKResult {
	tr := TopKResult{Graph: e.name, Epoch: s.epoch, K: key.k, Algo: key.algo, Cached: cached, Results: cr.res}
	switch key.algo {
	case AlgoOpt:
		tr.Theta = theta
	case AlgoApprox:
		tr.Eps = eps
		tr.Conf = conf
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

// EdgeError reports one edge of a batch that could not be applied.
type EdgeError struct {
	Edge  [2]int32 `json:"edge"`
	Error string   `json:"error"`
}

// UpdateResult is the edge-update endpoint payload.
type UpdateResult struct {
	Graph   string      `json:"graph"`
	Epoch   uint64      `json:"epoch"` // epoch now serving (the floor at admission for async)
	Applied int         `json:"applied"`
	Errors  []EdgeError `json:"errors,omitempty"`
	Ack     string      `json:"ack,omitempty"`
	Pending bool        `json:"pending,omitempty"` // async: admitted, commit outstanding
}

// ApplyEdges applies a batch of edge insertions (insert=true) or deletions
// to the named graph with the default durable acknowledgment; see
// ApplyEdgesAck.
func (r *Registry) ApplyEdges(name string, edges [][2]int32, insert bool) (UpdateResult, error) {
	return r.ApplyEdgesAck(name, edges, insert, AckDurable)
}

// ApplyEdgesAck admits a batch of edge insertions (insert=true) or
// deletions into the named graph's write pipeline. The batch joins the
// graph's admission queue; the dedicated writer goroutine drains everything
// waiting into one group commit — one WAL fsync and one snapshot
// publication for the whole group, which amortizes today's two dominant
// per-batch write costs across every concurrently arriving batch. Edges
// that fail individually (duplicate insert, missing delete, self-loop) are
// reported in the result but do not abort the rest of the batch.
//
// ack selects when the call returns: AckDurable (or "") blocks until the
// group commit that carried the batch finished — on a durable registry the
// batch is then in the fsync'd WAL — while AckAsync returns at admission
// with Pending set and the served epoch as a floor. A full queue fails
// with ErrBacklog either way.
//
// On a durable registry an error wrapping ErrStorage from the group's WAL
// append means nothing of the batch was applied; an error from the
// checkpoint that may follow the apply means the batch itself is already
// durable and applied — the returned UpdateResult is valid alongside such
// an error.
func (r *Registry) ApplyEdgesAck(name string, edges [][2]int32, insert bool, ack string) (UpdateResult, error) {
	return r.ApplyEdgesStamped(name, edges, nil, insert, ack)
}

// ApplyEdgesStamped is ApplyEdgesAck with explicit admission timestamps
// (unix ms), one per edge. Stamps matter only for insert batches on a
// sliding-window graph — they decide when each edge expires; there a nil
// stamps assigns the receive time to the whole batch, and a client-supplied
// vector must match the edge count. On an unwindowed graph (and on deletes)
// stamps are meaningless and rejected when present, so a client that thinks
// it is feeding a temporal graph finds out instead of silently losing its
// timeline.
func (r *Registry) ApplyEdgesStamped(name string, edges [][2]int32, stamps []int64, insert bool, ack string) (UpdateResult, error) {
	e, err := r.get(name)
	if err != nil {
		return UpdateResult{}, err
	}
	if err := r.readOnlyErr("apply edges"); err != nil {
		return UpdateResult{}, err
	}
	if len(edges) == 0 {
		return UpdateResult{}, fmt.Errorf("server: empty edge batch")
	}
	if ack == "" {
		ack = AckDurable
	}
	if ack != AckDurable && ack != AckAsync {
		return UpdateResult{}, fmt.Errorf("server: unknown ack mode %q (want %q or %q)", ack, AckDurable, AckAsync)
	}
	if stamps != nil {
		switch {
		case e.window == 0:
			return UpdateResult{}, fmt.Errorf("server: graph %q is not windowed: timestamps are not accepted", name)
		case !insert:
			return UpdateResult{}, fmt.Errorf("server: timestamps apply to insert batches only")
		case len(stamps) != len(edges):
			return UpdateResult{}, fmt.Errorf("server: %d timestamps for %d edges", len(stamps), len(edges))
		}
	}
	if e.window > 0 && insert && stamps == nil {
		// Absent stamps mean "now": the leader's receive time, assigned at
		// admission so it rides the WAL record and every replay — recovery,
		// replicas — sees the identical timeline.
		now := e.nowMS()
		stamps = make([]int64, len(edges))
		for i := range stamps {
			stamps[i] = now
		}
	}
	req := &writeReq{edges: edges, stamps: stamps, insert: insert}
	if ack == AckDurable {
		req.done = make(chan writeReply, 1)
	}
	if err := e.enqueue(req); err != nil {
		return UpdateResult{}, err
	}
	if ack == AckAsync {
		return UpdateResult{
			Graph: name, Epoch: e.snap.Load().epoch, Ack: AckAsync, Pending: true,
		}, nil
	}
	rep := <-req.done
	rep.res.Ack = AckDurable
	return rep.res, rep.err
}

// writerLoop is the per-graph writer goroutine: it owns the drain side of
// the admission queue for the entry's lifetime, group-committing everything
// waiting, and exits once closeWrites both closed the queue and the loop
// drained it.
func (e *entry) writerLoop(r *Registry) {
	defer close(e.stopped)
	if e.window > 0 && !e.replica && r.leader == "" {
		e.windowedWriterLoop(r)
		return
	}
	for req := range e.queue {
		e.commitGroup(r, e.collectGroup(req))
	}
}

// windowedWriterLoop adds idle expiry to the plain drain loop: a ticker
// wakes the writer often enough that edges crossing the window boundary
// expire promptly even when no client writes arrive. A tick runs an
// expiry-only drain (commitGroup with an empty group); one that finds
// nothing past the cutoff commits nothing and costs nothing durable.
// Followers never take this path — their expiry arrives as the leader's
// replayed delete batches, keeping both sides bitwise-equal at every seq.
func (e *entry) windowedWriterLoop(r *Registry) {
	tick := e.window / 4
	if tick > time.Second {
		tick = time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case req, ok := <-e.queue:
			if !ok {
				return
			}
			e.commitGroup(r, e.collectGroup(req))
		case <-ticker.C:
			e.commitGroup(r, nil)
		}
	}
}

// collectGroup gathers the batches of one group commit: the first request
// plus everything already queued (and, with a positive flush interval,
// everything arriving within the window), capped at the queue capacity.
//
// With no flush window, the drain yields the scheduler once before
// committing a short group: a sender that just enqueued is scheduled with
// direct handoff (it readies this goroutine ahead of every other runnable
// writer), so without the yield a saturated single-P process degenerates
// into a one-producer ping-pong with groups of one while the remaining
// writers starve. One Gosched moves this goroutine behind the runnable
// writers, letting them land their batches first — bounded, timer-free
// coalescing.
func (e *entry) collectGroup(first *writeReq) []*writeReq {
	group := []*writeReq{first}
	if e.flush > 0 {
		timer := time.NewTimer(e.flush)
		defer timer.Stop()
		for len(group) < cap(e.queue) {
			select {
			case req, ok := <-e.queue:
				if !ok {
					return group
				}
				group = append(group, req)
			case <-timer.C:
				return group
			}
		}
		return group
	}
	yielded := false
	for len(group) < cap(e.queue) {
		select {
		case req, ok := <-e.queue:
			if !ok {
				return group
			}
			group = append(group, req)
		default:
			if yielded {
				return group
			}
			yielded = true
			runtime.Gosched()
		}
	}
	return group
}

// Server-level crash points, between the store's durability points and the
// in-memory stages of the group commit. The crash-recovery harness uses
// them to kill the pipeline after the group WAL append but before the apply
// or the snapshot publication — batches that are durable but were never
// applied (or never served) must still be recovered — and between the
// overlay publication and the compaction/checkpoint that would have
// followed, proving recovery never depends on a compaction having run.
// crashAfterExpiry kills a windowed drain after the expiry batch was
// synthesized but before anything reached the WAL: nothing of it is
// durable, so recovery must come back with the edges still live and
// re-expire them on the first post-recovery drain.
const (
	crashAfterExpiry   = "server-after-expiry"
	crashBeforeApply   = "server-before-apply"
	crashBeforePublish = "server-before-publish"
	crashAfterPublish  = "server-after-publish"
)

// serverCrash fires the registry-level crash hook at a pipeline point.
func (r *Registry) serverCrash(name, point string) error {
	if r.crashHook == nil {
		return nil
	}
	return r.crashHook(name, point)
}

// commitGroup is one drain of the write pipeline: expiry synthesis on a
// windowed leader, one WAL append covering every batch in the group (one
// fsync), the deterministic per-batch apply in admission order, one
// snapshot publication, one checkpoint-policy check — then the
// acknowledgments. A nil group is an expiry-only drain from the windowed
// writer's ticker; it commits nothing unless edges actually expired.
func (e *entry) commitGroup(r *Registry, group []*writeReq) {
	e.mu.Lock()
	if perr := e.failed.Load(); perr != nil {
		err := fmt.Errorf("server: graph %q: %w: pipeline poisoned by earlier failure: %w", e.name, ErrStorage, *perr)
		e.mu.Unlock()
		for _, req := range group {
			req.reply(UpdateResult{}, err)
		}
		return
	}

	// Expiry synthesis (DESIGN.md §14): on a windowed leader every drain
	// first turns the edges older than now−window into an ordinary delete
	// batch at the head of the group, so it reaches the WAL before anything
	// else this drain does — recovery, instant-recovery imports, and
	// shipped replicas replay expiry as plain history and never need a
	// clock of their own. ExpireBefore returns the edges in canonical order,
	// a deterministic function of the live edge set.
	if e.tidx != nil && !e.replica && r.leader == "" {
		cutoff := e.nowMS() - int64(e.window/time.Millisecond)
		if expired := e.tidx.ExpireBefore(cutoff); len(expired) > 0 {
			group = append([]*writeReq{{edges: expired, insert: false}}, group...)
			e.expiredEdges.Add(int64(len(expired)))
			e.expiryBatches.Add(1)
			if err := r.serverCrash(e.name, crashAfterExpiry); err != nil {
				e.abortGroup(group, err)
				return
			}
		}
	}
	if len(group) == 0 {
		e.mu.Unlock()
		return
	}

	// Group WAL append: per-batch records, one fsync. An error here means
	// nothing of the group was applied — and the store has poisoned
	// itself, so poison the pipeline too: admissions (notably ack=async
	// ones, which would otherwise be answered 202 and then silently
	// dropped) must start failing up front.
	if e.st != nil {
		specs := make([]store.BatchSpec, len(group))
		for i, req := range group {
			specs[i] = store.BatchSpec{Insert: req.insert, Edges: req.edges, Stamps: req.stamps}
		}
		if _, err := e.st.AppendBatches(specs); err != nil {
			e.failed.Store(&err)
			e.mirrorPersist()
			e.mu.Unlock()
			err = fmt.Errorf("server: graph %q: %w: %w", e.name, ErrStorage, err)
			for _, req := range group {
				req.reply(UpdateResult{}, err)
			}
			return
		}
	}
	if err := r.serverCrash(e.name, crashBeforeApply); err != nil {
		e.abortGroup(group, err)
		return
	}

	// Apply each batch through the maintainer, in admission order — the
	// same deterministic path WAL replay takes on recovery.
	applied := 0
	for _, req := range group {
		req.res = e.applyLocked(req.edges, req.stamps, req.insert)
		applied += req.res.Applied
	}
	e.refreshTemporalLocked()

	// One snapshot publication for the whole group: an O(batch) overlay on
	// the previous view, never a full CSR export (the compactor owns those).
	old := e.snap.Load()
	epoch := old.epoch
	if applied > 0 {
		if err := r.serverCrash(e.name, crashBeforePublish); err != nil {
			e.abortGroup(group, err)
			return
		}
		epoch = old.epoch + 1
		e.publishLocked(epoch)
		if err := r.serverCrash(e.name, crashAfterPublish); err != nil {
			e.abortGroup(group, err)
			return
		}
	}
	for _, req := range group {
		req.res.Epoch = epoch
	}
	e.groupCommits.Add(1)
	e.coalescedBatches.Add(int64(len(group)))

	// Checkpoint before the compaction check: a checkpoint that fires on
	// this drain forces its own synchronous flatten (fullGraphLocked), after
	// which the chain is gone and the background trigger no-ops — the other
	// order would materialize the same chain twice.
	ckErr := e.maybeCheckpoint(r.ckptBatches, r.ckptBytes, len(group))
	e.maybeCompactLocked()
	e.mu.Unlock()

	var groupErr error
	if ckErr != nil {
		// The group itself is durable and applied; only the fold failed —
		// but the store is poisoned now, so poison admissions as well.
		e.failed.Store(&ckErr)
		groupErr = fmt.Errorf("server: graph %q: %w: %w", e.name, ErrStorage, ckErr)
	}
	for _, req := range group {
		req.reply(req.res, groupErr)
	}
}

// abortGroup poisons the pipeline after an injected server-level crash and
// fails the whole group: past this point in-memory and durable state could
// disagree, so no further commit may run. Callers hold e.mu.
func (e *entry) abortGroup(group []*writeReq, cause error) {
	e.failed.Store(&cause)
	e.mu.Unlock()
	err := fmt.Errorf("server: graph %q: %w: %w", e.name, ErrStorage, cause)
	for _, req := range group {
		req.reply(UpdateResult{}, err)
	}
}

// applyLocked routes one batch through the graph's maintainer, skipping
// per-edge failures, and keeps the temporal sidecar of a windowed graph in
// step (stamping applied inserts, forgetting applied deletes). It is
// deliberately deterministic in the graph state and the batch alone — WAL
// replay calls it with the logged batches (and their logged stamps) to
// reproduce the live outcome exactly. Callers hold e.mu (or own the entry
// exclusively, as recovery does before publication).
func (e *entry) applyLocked(edges [][2]int32, stamps []int64, insert bool) UpdateResult {
	res := UpdateResult{Graph: e.name}
	// Inserts may grow the vertex set to max(u,v)+1, so bound how far one
	// batch can push it: ids beyond the limit fail per-edge instead of
	// allocating an arbitrarily large adjacency array under the lock.
	var curN int32
	if e.local != nil {
		curN = e.local.Graph().NumVertices()
	} else {
		curN = e.lazy.Graph().NumVertices()
	}
	limit := curN + maxBatchGrowth
	for i, ed := range edges {
		var opErr error
		if ed[0] >= limit || ed[1] >= limit {
			res.Errors = append(res.Errors, EdgeError{Edge: ed, Error: fmt.Sprintf(
				"server: vertex id exceeds growth limit %d (current n %d + %d per batch)",
				limit, curN, maxBatchGrowth)})
			continue
		}
		switch {
		case insert && e.local != nil:
			opErr = e.local.InsertEdge(ed[0], ed[1])
		case insert && e.lazy != nil:
			opErr = e.lazy.InsertEdge(ed[0], ed[1])
		case !insert && e.local != nil:
			opErr = e.local.DeleteEdge(ed[0], ed[1])
		default:
			opErr = e.lazy.DeleteEdge(ed[0], ed[1])
		}
		if opErr != nil {
			res.Errors = append(res.Errors, EdgeError{Edge: ed, Error: opErr.Error()})
			continue
		}
		res.Applied++
		if e.tidx != nil {
			if insert {
				var ts int64
				if stamps != nil {
					ts = stamps[i]
				}
				e.tidx.Stamp(ed[0], ed[1], ts)
			} else {
				e.tidx.Forget(ed[0], ed[1])
			}
		}
		if insert {
			e.inserts.Add(1)
		} else {
			e.deletes.Add(1)
		}
	}
	return res
}

// noOldestStamp is the oldestStamp mirror's "no live stamped edges"
// sentinel — outside any real unix-ms stamp a test clock would use.
const noOldestStamp = math.MinInt64

// refreshTemporalLocked re-mirrors the oldest live stamp after a drain (or
// recovery/replica apply) mutated the temporal sidecar, so GraphInfo reads
// it lock-free. Callers hold e.mu or own the entry exclusively.
func (e *entry) refreshTemporalLocked() {
	if e.tidx == nil {
		return
	}
	if oldest, ok := e.tidx.OldestStamp(); ok {
		e.oldestStamp.Store(oldest)
	} else {
		e.oldestStamp.Store(noOldestStamp)
	}
}

// dyn returns the maintainer's mutable graph.
func (e *entry) dyn() *graph.DynGraph {
	if e.local != nil {
		return e.local.Graph()
	}
	return e.lazy.Graph()
}

// publishLocked publishes the post-drain state as a copy-on-write snapshot:
// a graph.Overlay carrying only the adjacency lists this drain dirtied,
// layered on the previous view, and (in ModeLocal) a score vector sharing
// every chunk no score of which changed. Both costs are O(batch), so the
// write lock holds publication latency independent of the graph size — the
// O(n+m) work moved to the background compactor. Callers must hold e.mu.
func (e *entry) publishLocked(epoch uint64) {
	t0 := time.Now()
	old := e.snap.Load()
	s := &snapshot{epoch: epoch, view: e.dyn().FreezeOverlay(old.view), buildWorkers: e.workers}
	if e.local != nil {
		sv, copied := old.scores.withUpdates(e.local.All(), e.local.TakeDirtyScores())
		s.scores = sv
		if copied > 0 {
			e.scoresCopied.Add(int64(copied) * scoreChunkSize)
		}
	}
	s.publishDur = time.Since(t0)
	e.snap.Store(s)
}

// makeRelab builds the degree-ordered relabeling of a fully compacted view,
// or nil when the entry does not relabel. O(n log n + m); callers decide
// whether that runs under e.mu (checkpoint-forced flattens, recovery) or
// off-lock (the background compactor).
func (e *entry) makeRelab(g *graph.Graph) *graph.Relabeled {
	if !e.relabel {
		return nil
	}
	return graph.DegreeRelabel(g)
}

// relabFromPerm prefers a persisted permutation over recomputing the degree
// order, so a recovered graph serves with the exact pre-crash internal
// layout. An unusable permutation (wrong n after WAL replay grew the graph,
// or a corrupt section that decoded to a non-bijection) falls back to
// DegreeRelabel — any bijection serves correctly, so the fallback is never
// wrong, just a fresh layout.
func (e *entry) relabFromPerm(g *graph.Graph, perm []int32) *graph.Relabeled {
	if !e.relabel {
		return nil
	}
	if len(perm) > 0 {
		if rl, err := graph.RelabelFromPerm(g, perm); err == nil {
			return rl
		}
	}
	return graph.DegreeRelabel(g)
}

// buildFullSnapshot freezes the maintainer's current graph (and, in
// ModeLocal, its exact scores) into a fully compacted snapshot — a
// standalone CSR, no overlay. Recovery uses it to seed the first published
// view, passing the checkpointed permutation (if any) so the internal
// layout round-trips; the steady-state write path publishes overlays
// instead. It resets the maintainer's dirty tracking, which the freeze
// subsumes. Callers must hold e.mu or own the entry exclusively.
func (e *entry) buildFullSnapshot(epoch uint64, perm []int32) *snapshot {
	t0 := time.Now()
	dyn := e.dyn()
	dyn.TakeDirty()
	g := dyn.Freeze(e.workers)
	s := &snapshot{epoch: epoch, view: g, relab: e.relabFromPerm(g, perm), buildWorkers: e.workers}
	if e.local != nil {
		e.local.TakeDirtyScores()
		s.scores = newScoreVec(e.local.All())
	}
	s.publishDur = time.Since(t0)
	e.lastCompactNs.Store(s.publishDur.Nanoseconds())
	return s
}

// maybeCompactLocked checks the compaction policy against the just-published
// view and, when it trips, hands the flatten to a background goroutine — at
// most one per entry at a time. Callers hold e.mu; the compactor itself
// takes e.mu only for the final swap.
func (e *entry) maybeCompactLocked() {
	s := e.snap.Load()
	ov := s.overlay()
	if ov == nil {
		return
	}
	n := int(ov.NumVertices())
	if ov.Depth() < e.maxDepth && (n == 0 || float64(ov.DirtyVertices()) < e.dirtyRatio*float64(n)) {
		return
	}
	if e.compacting.Swap(true) {
		return // a flatten is already in flight; it will cover these layers
	}
	go e.compact(s)
}

// compact flattens the overlay chain of snap into a fresh base CSR and
// republishes. The O(n+m) Materialize reads only immutable state, so it
// runs with no lock held — readers keep reading, the writer keeps
// publishing layers on top. The swap then happens under e.mu: if the
// published snapshot is still snap, its view is simply replaced; if drains
// landed meanwhile, the layers they stacked on top are re-anchored onto the
// new base (sharing their delta maps), so their O(batch) publications
// survive the compaction. Epoch and scores are untouched — the graph the
// snapshot answers for is identical, only its representation changed.
func (e *entry) compact(snap *snapshot) {
	ov := snap.overlay()
	if ov == nil {
		e.compacting.Store(false)
		return
	}
	t0 := time.Now()
	g := ov.Materialize(e.workers)
	// The relabeling is O(n log n + m) like the flatten itself, so it is
	// built here, off-lock, and discarded on the rebase path (where the
	// published view stays an overlay).
	relab := e.makeRelab(g)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compacting.Store(false)
	if e.removed {
		return
	}
	// Whatever happens below, drains may have stacked further layers while
	// this flatten ran (including on a checkpoint-forced base that makes
	// the Rebase miss) — re-check the policy on the way out so a too-deep
	// chain cannot outlive the last drain.
	defer e.maybeCompactLocked()
	cur := e.snap.Load()
	var nview graph.View
	if cur == snap {
		nview = g
	} else if curOv := cur.overlay(); curOv != nil {
		v, ok := curOv.Rebase(snap.view, g)
		if !ok {
			return // a checkpoint-forced compaction already replaced the chain
		}
		nview, relab = v, nil // still an overlay: no relabeled twin
	} else {
		return // already a full CSR
	}
	e.snap.Store(cur.withView(nview, relab))
	e.compactions.Add(1)
	e.lastCompactNs.Store(time.Since(t0).Nanoseconds())
}

// fullGraphLocked returns the full CSR of the published snapshot, forcing a
// synchronous compaction when the served view is an overlay — checkpoints
// need a standalone CSR for the unchanged on-disk format, and reusing the
// forced flatten as the published view means the work is paid once. Callers
// must hold e.mu.
func (e *entry) fullGraphLocked() *graph.Graph {
	s := e.snap.Load()
	if g, ok := s.view.(*graph.Graph); ok {
		return g
	}
	t0 := time.Now()
	g := s.overlay().Materialize(e.workers)
	e.snap.Store(s.withView(g, e.makeRelab(g)))
	e.compactions.Add(1)
	e.lastCompactNs.Store(time.Since(t0).Nanoseconds())
	return g
}
