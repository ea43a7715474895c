package server

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// Maintenance modes for a served graph.
const (
	// ModeLocal keeps the map-holding Maintainer (LocalInsert/LocalDelete):
	// every snapshot carries the exact score of every vertex, so top-k for
	// any k and per-vertex queries are O(1)-per-score reads. Costs the
	// evidence-map memory.
	ModeLocal = "local"
	// ModeLazy keeps the map-free Maintainer: O(n) scalars, and an update
	// leaves the vertices it touched stale under a bound that reads
	// recompute on the snapshot, for any k.
	ModeLazy = "lazy"
)

// ErrReadOnly marks a mutation rejected because the registry runs as a
// read-only follower (WithLeader): graph loads, removals, and edge updates
// belong on the leader. The HTTP layer answers 403 with the leader's address
// so clients can redirect themselves.
var ErrReadOnly = fmt.Errorf("read-only replica")

// entry is one served graph: the atomically swappable snapshot for readers,
// the mutable maintainer state for the writer side, and the write pipeline —
// a bounded admission queue drained by a dedicated writer goroutine that
// group-commits everything waiting (one WAL fsync, one snapshot publication
// per drain; DESIGN.md §9).
type entry struct {
	name    string
	mode    string
	workers int // snapshot-build worker budget (≥ 1)

	// Compaction policy (DESIGN.md §10): flatten the overlay chain into a
	// fresh base CSR once its depth or its dirty-vertex share of n crosses
	// these bounds (compactDepth and compactDirty; tests move them). The
	// compactor runs in its own goroutine, off the write path; compacting
	// serializes it (one flatten at a time).
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

	// mu serializes all mutation of the maintainer state below and every
	// snapshot publication. Readers never take it.
	mu sync.Mutex
	m  *dynamic.Maintainer // map-holding in ModeLocal, map-free in ModeLazy

	// removed marks an entry whose Remove completed: the durable store is
	// gone, and a compaction or a shipped batch that raced the removal
	// must not touch (and resurrect) the deleted state. Guarded by mu.
	removed bool
	// failed poisons the pipeline after any durability failure — a WAL
	// append or checkpoint error (which poisons the store too) or an
	// injected server-level crash: once a commit aborted mid-flight,
	// in-memory and durable state may disagree, so further commits must
	// fail rather than diverge. Admission checks it so an ack=async
	// caller is rejected up front (ErrStorage) instead of being answered
	// 202 for a batch the dead pipeline would silently drop. Written under
	// mu by commits, loaded lock-free by enqueuers and GraphInfo.
	failed atomic.Pointer[error]

	// st is the graph's durable store (nil without WithDataDir). Set once
	// before the entry is published, used only under mu; sinceCkpt counts
	// the batches appended since the last durable checkpoint.
	st        *store.Store
	sinceCkpt int

	// How this entry's maintainer came to be at recovery or replica
	// install: "fast" when the snapshot's maintainer-state section was
	// imported (O(load) boot), "rebuild" when scores and evidence were
	// recomputed from the graph, "" for a created graph, which was never
	// recovered. recoverReason says why a rebuild happened. Set once in
	// restoreEntry (and cleared by AddWindowed) before the entry is
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

	// The compactor's audit (entry.audit): where the next one starts, the
	// scores audited, those that differed, and the first difference (string).
	auditNext       int32
	audited         atomic.Int64
	auditMismatches atomic.Int64
	auditFirst      atomic.Value

	// Latency instruments, rendered by GET /metrics: the search of each
	// cache miss by resolved algo (in searchAlgos' order), and every
	// commitLocked.
	searchSeconds [len(searchAlgos)]obs.Histogram
	commitSeconds obs.Histogram

	// Write-pipeline accounting: drains committed, batches carried by them
	// (coalescedBatches/groupCommits is the amortization factor), and
	// admissions rejected by backpressure.
	groupCommits     atomic.Int64
	coalescedBatches atomic.Int64
	writeRejects     atomic.Int64

	// Snapshot-publication accounting (DESIGN.md §10): the compactor's
	// flattens, the last one's wall-clock (both 0 until it first runs),
	// and the score entries the copy-on-write vector materialized across
	// all drains (chunk granularity — a drain that changed nothing adds 0).
	compactions   atomic.Int64
	lastCompactNs atomic.Int64
	scoresCopied  atomic.Int64

	// Lock-free mirrors of the store's accounting, refreshed after every
	// durable operation so GraphInfo never has to take mu.
	walSeq    atomic.Uint64
	walBytes  atomic.Int64
	snapSeq   atomic.Uint64
	snapBytes atomic.Int64
	ckpts     atomic.Int64

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

// ErrNotFound marks a request naming a graph the registry does not serve —
// never registered, or removed (including a removal that raced the request)
// — so the HTTP layer answers 404 from the failure itself instead of a
// second lookup.
var ErrNotFound = fmt.Errorf("no graph named")

func notFound(name string) error { return fmt.Errorf("server: %w %q", ErrNotFound, name) }

// ErrDuplicate marks an Add that lost to an existing graph of the same
// name, so the HTTP layer can distinguish a genuine conflict (409) from
// plain request validation failures (400).
var ErrDuplicate = fmt.Errorf("graph name already exists")

// ErrSearchDeadline marks an approx top-k search its deadline stopped; the
// HTTP layer answers 503, and nothing is cached.
var ErrSearchDeadline = fmt.Errorf("search deadline exceeded")

// ErrStorage marks a durability failure (WAL append, fsync, checkpoint) on
// an otherwise valid request, so the HTTP layer can answer 500 — the
// server's disk, not the client's request, is at fault.
var ErrStorage = fmt.Errorf("storage failure")

// Default checkpoint policy: snapshot + WAL truncation after this many
// batches or this many WAL bytes, whichever comes first.
const (
	defaultCheckpointBatches = 16
	defaultCheckpointBytes   = 4 << 20
)

// writeQueueCap is the per-graph admission-queue capacity, which is also the
// largest group one drain may commit.
const writeQueueCap = 128

// Compaction policy: flatten the overlay chain once it is this many layers
// deep or once its dirty vertices reach this share of n, whichever trips
// first. Depth bounds the chain walk a read pays on a delta miss; the ratio
// bounds the memory the deltas duplicate.
const (
	compactDepth = 8
	compactDirty = 0.25
)

// Registry is a named collection of served graphs. Lookup is guarded by a
// read-write mutex; everything per-graph uses the entry's own scheme.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry

	// Applied to new graphs: the snapshot-build worker budget (GOMAXPROCS)
	// and the admission-queue capacity (writeQueueCap). Tests shrink them.
	workers  int
	queueCap int

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

	// searchDeadline bounds a top-k cache miss's search when the query sets
	// no deadline of its own; 0 = none.
	searchDeadline time.Duration
}

// RegistryOption configures a Registry.
type RegistryOption func(*Registry)

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

// WithLeader makes the registry a read-only follower of the leader at url:
// Add, Remove, and ApplyEdgesStamped reject with ErrReadOnly (the HTTP layer
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

// WithSearchDeadline bounds every top-k cache miss's search by d unless
// the query carries a deadline of its own (?deadline_ms=). Zero, the
// default, sets none. A seeded scores read the deadline stops answers its
// certified prefix; an approx one fails with ErrSearchDeadline.
func WithSearchDeadline(d time.Duration) RegistryOption {
	return func(r *Registry) { r.searchDeadline = d }
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

// NewRegistry returns an empty registry. Snapshot builds use GOMAXPROCS
// workers.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{
		entries:     make(map[string]*entry),
		workers:     runtime.GOMAXPROCS(0),
		queueCap:    writeQueueCap,
		ckptBatches: defaultCheckpointBatches,
		ckptBytes:   defaultCheckpointBytes,
		nowMS:       func() int64 { return time.Now().UnixMilli() },
	}
	for _, o := range opts {
		o(r)
	}
	return r
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
		return nil, notFound(name)
	}
	return e, nil
}

// each calls f on every graph registered when it starts, in name order,
// outside the registry lock.
func (r *Registry) each(f func(*entry)) {
	r.mu.RLock()
	es := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		es = append(es, e)
	}
	r.mu.RUnlock()
	sort.Slice(es, func(i, j int) bool { return es[i].name < es[j].name })
	for _, e := range es {
		f(e)
	}
}

// Len returns the number of registered graphs.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Add registers g under name with the given maintenance mode, using the
// registry's default sliding window (usually none). Building the maintainer
// computes all initial scores, the first snapshot's. lazyK is unused (lazy
// mode kept one k once); it stays for the callers that pass it.
func (r *Registry) Add(name string, g *graph.Graph, mode string, lazyK int) (GraphInfo, error) {
	return r.AddWindowed(name, g, mode, r.window)
}

// AddWindowed is Add with an explicit sliding window: window > 0 makes the
// graph temporal — every initial edge is stamped with the creation time,
// admitted inserts are stamped on arrival, and the writer goroutine expires
// edges older than now−window through WAL-recorded delete batches (DESIGN.md
// §14). window == 0 serves the graph unwindowed regardless of the registry
// default.
func (r *Registry) AddWindowed(name string, g *graph.Graph, mode string, window time.Duration) (GraphInfo, error) {
	if window < 0 {
		return GraphInfo{}, fmt.Errorf("server: window must be non-negative, got %v", window)
	}
	if window > 0 && window < time.Millisecond {
		return GraphInfo{}, fmt.Errorf("server: window %v is below the 1ms stamp resolution", window)
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

	rec := &store.Recovered{Graph: g, Meta: store.SnapshotMeta{Mode: modeToTag(mode)}}
	if window > 0 {
		// Every edge of a windowed graph carries a stamp from birth: the
		// initial load is stamped with the creation time, and the stamps are
		// persisted alongside the first snapshot so a crash before the first
		// checkpoint still recovers a graph that keeps expiring correctly.
		rec.Stamps = &store.TemporalState{WindowMS: uint64(window / time.Millisecond),
			Stamps: slices.Repeat([]int64{r.nowMS()}, int(g.NumEdges()))}
	}
	// Creating a graph is recovering an empty history: restoreEntry builds
	// the maintainer over g and publishes g itself as the first view.
	e, err := r.restoreEntry(name, nil, rec)
	if err != nil {
		return GraphInfo{}, fmt.Errorf("server: graph %q: %w", name, err)
	}
	e.recoverPath, e.recoverReason = "", "" // never recovered

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
			rec.Meta, rec.Stamps, r.storeOptions(name)...)
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

// newMaintainer builds mode's maintainer over g: the map-holding form in
// ModeLocal, the map-free one in ModeLazy.
func newMaintainer(mode string, g *graph.Graph) *dynamic.Maintainer {
	if mode == ModeLazy {
		return dynamic.NewMapFreeMaintainer(g)
	}
	return dynamic.NewMaintainer(g)
}

// Remove drops the named graph, deleting its durable store (if any) with it.
//
// Ordering is the use-after-Remove fix: first unregister the name (new
// lookups fail), then close the admission queue and wait for the writer
// goroutine to drain and acknowledge every batch admitted before the close,
// and only then mark the entry removed and delete the store. A straggling
// writer that looked the entry up before the removal finds the queue closed
// and fails with not-found — it can no longer append to or checkpoint into
// the deleted directory, resurrecting it on disk.
func (r *Registry) Remove(name string) error {
	if err := r.readOnlyErr("remove graph"); err != nil {
		return err
	}
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return notFound(name)
	}
	delete(r.entries, name)
	r.mu.Unlock()

	if err := e.teardown(true); err != nil {
		return fmt.Errorf("server: graph %q: %w: remove store: %w", name, ErrStorage, err)
	}
	return nil
}

// teardown is the one shutdown sequence of an entry that has left (or is
// leaving with) the registry: close the admission queue, wait for the
// writer to drain every admitted batch and exit, mark the entry removed so
// a straggling compaction or shipped batch leaves it alone, and only then
// release the durable store — deleting it when deleteStore is set.
func (e *entry) teardown(deleteStore bool) error {
	e.closeWrites()
	<-e.stopped
	e.mu.Lock()
	defer e.mu.Unlock()
	e.removed = true
	switch {
	case e.st == nil:
		return nil
	case deleteStore:
		return e.st.Remove()
	}
	return e.st.Close()
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
