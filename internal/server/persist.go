package server

// This file is the persistence glue between the Registry and internal/store
// (DESIGN.md §8).
//
// Durability contract: the per-graph serialized writer appends every update
// batch to the graph's WAL (and fsyncs) before applying it, and periodically
// folds the WAL into a fresh binary CSR snapshot (the checkpoint). Since the
// version-2 snapshot format (DESIGN.md §11), a checkpoint also carries the
// live maintainer's state — scores, pair-evidence tables, dirty bookkeeping —
// in a separately checksummed section, so recovery has a fast path: load the
// CSR, import the maintainer state in O(load), and replay only the WAL tail
// through applyLocked, the same deterministic batch-application code the live
// writer uses. When the section is absent (a pre-v2 or never-checkpointed
// store), version-skewed, corrupt, or fails import validation, recovery falls
// back to rebuilding the maintainer from the graph — strictly slower, never
// wrong — and reports which path ran (GraphInfo.RecoverPath/RecoverReason).
// Either way the recovered top-k state matches a process that never crashed.

import (
	"fmt"
	"time"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/store"
)

// Maintenance-mode tags in persisted snapshot headers.
const (
	modeTagLocal uint8 = 0
	modeTagLazy  uint8 = 1
)

func modeToTag(mode string) uint8 {
	if mode == ModeLazy {
		return modeTagLazy
	}
	return modeTagLocal
}

func modeFromTag(tag uint8) (string, error) {
	switch tag {
	case modeTagLocal:
		return ModeLocal, nil
	case modeTagLazy:
		return ModeLazy, nil
	default:
		return "", fmt.Errorf("server: unknown persisted mode tag %d", tag)
	}
}

// storeOptions builds the per-graph store options, binding the registry's
// crash hook to the graph name.
func (r *Registry) storeOptions(name string) []store.Option {
	if r.crashHook == nil {
		return nil
	}
	return []store.Option{store.WithCrashHook(func(point string) error {
		return r.crashHook(name, point)
	})}
}

// persistMeta is the snapshot metadata for this entry at WAL sequence seq.
func (e *entry) persistMeta(seq uint64) store.SnapshotMeta {
	meta := store.SnapshotMeta{Mode: modeToTag(e.mode), Seq: seq}
	if e.lazy != nil {
		meta.LazyK = uint32(e.lazy.K())
	}
	return meta
}

// mirrorPersist refreshes the entry's lock-free persistence counters from
// the store. Callers hold e.mu.
func (e *entry) mirrorPersist() {
	if e.st == nil {
		return
	}
	e.walSeq.Store(e.st.Seq())
	e.walBytes.Store(e.st.WALBytes())
	e.snapSeq.Store(e.st.SnapshotSeq())
	e.ckpts.Store(e.st.Checkpoints())
}

// maintainerState exports the live maintainer's state for a checkpoint.
// The exported slices alias live maintainer internals and stay valid only
// until the next applied batch — callers hold e.mu and encode synchronously,
// which is exactly that window. Callers hold e.mu.
func (e *entry) maintainerState() *store.MaintainerState {
	switch {
	case e.local != nil:
		return &store.MaintainerState{Local: e.local.ExportState()}
	case e.lazy != nil:
		return &store.MaintainerState{Lazy: e.lazy.ExportState()}
	}
	return nil
}

// maybeCheckpoint folds the WAL into a fresh snapshot once the policy says
// so: every ckptBatches update batches (a group commit counts each batch it
// carried) or once the WAL passes ckptBytes. The on-disk format is a full
// CSR plus the maintainer-state section, unchanged by the overlay scheme:
// the checkpoint takes its graph from the compactor — fullGraphLocked forces
// a synchronous compaction when the served view is still an overlay chain,
// and the flattened CSR is republished so the work also pays down the read
// path. Callers hold e.mu.
func (e *entry) maybeCheckpoint(ckptBatches int, ckptBytes int64, batches int) error {
	if e.st == nil {
		return nil
	}
	defer e.mirrorPersist()
	e.sinceCkpt += batches
	if e.sinceCkpt < ckptBatches && e.st.WALBytes() < ckptBytes {
		return nil
	}
	g := e.fullGraphLocked()
	// A windowed graph checkpoints its temporal sidecar alongside the CSR,
	// so recovery keeps expiring from the exact per-edge stamps. A sidecar
	// that cannot produce a stamp for every graph edge is a divergence bug,
	// treated like any other checkpoint failure (the pipeline poisons).
	var ts *store.TemporalState
	if e.tidx != nil {
		stamps, err := e.tidx.ExportStamps(g)
		if err != nil {
			return err
		}
		ts = &store.TemporalState{WindowMS: uint64(e.tidx.WindowMS()), Stamps: stamps}
	}
	if err := e.st.CheckpointFull(g, e.persistMeta(e.st.Seq()), e.maintainerState(), nil, ts); err != nil {
		return err
	}
	e.sinceCkpt = 0
	return nil
}

// Close shuts every graph's write pipeline — the admission queues stop
// accepting, the writer goroutines drain what was admitted and exit — and
// then releases every durable store: WAL handles and the per-directory
// locks that exclude a second opener. The registry must not serve
// afterwards. Clean daemon shutdown calls it; so do tests and examples that
// reopen a data dir in-process, where it stands in for the lock release a
// real process death performs automatically.
func (r *Registry) Close() error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.closeWrites()
		<-e.stopped
	}
	var first error
	for _, e := range entries {
		e.mu.Lock()
		if e.st != nil {
			if err := e.st.Close(); err != nil && first == nil {
				first = err
			}
		}
		e.mu.Unlock()
	}
	return first
}

// RecoverFailure is one graph Recover could not bring back.
type RecoverFailure struct {
	Graph string
	Err   error
}

func (f RecoverFailure) Error() string {
	return fmt.Sprintf("server: recover graph %q: %v", f.Graph, f.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (f RecoverFailure) Unwrap() error { return f.Err }

// RecoverError collects the per-graph failures of one Recover pass. It
// implements Unwrap() []error, so errors.Is/As reach into every failure —
// existing callers testing errors.Is(err, ErrDuplicate) keep working.
type RecoverError struct {
	Failures []RecoverFailure
}

func (e *RecoverError) Error() string {
	if len(e.Failures) == 1 {
		return e.Failures[0].Error()
	}
	return fmt.Sprintf("server: recover: %d graphs failed (first: %v)", len(e.Failures), e.Failures[0])
}

// Unwrap returns the per-graph failures for errors.Is/As traversal.
func (e *RecoverError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// Recover loads every graph persisted under the registry's data directory:
// latest snapshot, then the WAL tail replayed through the paper's
// maintainer. It returns the recovered graphs' summaries. Call it once,
// before serving traffic; recovering a name that is already registered is an
// error.
//
// One broken graph does not abort the boot: every remaining graph is still
// recovered and served, and the failures come back collected in a
// *RecoverError alongside the successful summaries — the daemon logs them
// and keeps the healthy graphs online rather than refusing to start over
// one bad directory.
func (r *Registry) Recover() ([]GraphInfo, error) {
	if r.dataDir == "" {
		return nil, nil
	}
	names, err := store.ListGraphs(r.dataDir)
	if err != nil {
		return nil, fmt.Errorf("server: recover: %w", err)
	}
	infos := make([]GraphInfo, 0, len(names))
	var failures []RecoverFailure
	for _, name := range names {
		gi, err := r.recoverOne(name)
		if err != nil {
			failures = append(failures, RecoverFailure{Graph: name, Err: err})
			continue
		}
		infos = append(infos, gi)
	}
	if len(failures) > 0 {
		return infos, &RecoverError{Failures: failures}
	}
	return infos, nil
}

// recoverOne brings one graph back from its store directory. When the
// snapshot carries a usable maintainer-state section the maintainer is
// imported from it in O(load) — the fast path; otherwise (pre-v2 snapshot,
// corrupt or version-skewed section, import validation failure) it is
// reconstructed on the snapshot graph, recomputing all scores and evidence.
// Either way the WAL tail is then replayed through applyLocked — the same
// deterministic code the live writer runs — so the final state equals the
// pre-crash state.
func (r *Registry) recoverOne(name string) (GraphInfo, error) {
	// Refuse before touching the store: opening would contend on the
	// directory lock the already-registered graph holds.
	r.mu.RLock()
	_, dup := r.entries[name]
	r.mu.RUnlock()
	if dup {
		return GraphInfo{}, fmt.Errorf("graph already registered: %w", ErrDuplicate)
	}
	st, rec, err := store.Open(store.GraphDir(r.dataDir, name), r.storeOptions(name)...)
	if err != nil {
		return GraphInfo{}, err
	}
	e, err := r.restoreEntry(name, st, rec)
	if err != nil {
		st.Close()
		return GraphInfo{}, err
	}
	if err := r.register(e); err != nil {
		st.Close()
		return GraphInfo{}, err
	}
	return e.info(), nil
}

// restoreEntry builds a served entry from a store's recovered state: the
// maintainer via fast-import or rebuild, the WAL tail replayed through
// applyLocked, the first snapshot published as a fully compacted CSR. It is
// the shared trunk of crash recovery (recoverOne) and replica installation
// (InstallReplica, where st may be nil for a memory-only follower). The
// entry is complete but unregistered; callers hand it to register.
func (r *Registry) restoreEntry(name string, st *store.Store, rec *store.Recovered) (*entry, error) {
	mode, err := modeFromTag(rec.Meta.Mode)
	if err != nil {
		return nil, err
	}
	e := r.newEntry(name, mode)
	e.st = st
	t0 := time.Now()
	e.recoverPath = "rebuild"
	switch {
	case rec.StateErr != nil:
		e.recoverReason = rec.StateErr.Error()
	case rec.State == nil:
		e.recoverReason = "no maintainer-state section in snapshot"
	}
	// Invalid persisted metadata must not fail the boot over a value the
	// rebuild path can substitute — but substituting silently would hide
	// that the served lazy-k is not what the checkpoint claimed, so the
	// fallback is recorded and survives into recover_reason whichever
	// maintainer path wins below.
	var metaReason string
	if mode == ModeLocal {
		if rec.State != nil && rec.StateErr == nil {
			if rec.State.Local == nil {
				e.recoverReason = "snapshot maintainer state is for the other maintenance mode"
			} else if m, err := dynamic.NewMaintainerFromState(rec.Graph, rec.State.Local); err != nil {
				e.recoverReason = fmt.Sprintf("maintainer-state import: %v", err)
			} else {
				e.local, e.recoverPath, e.recoverReason = m, "fast", ""
			}
		}
		if e.local == nil {
			e.local = dynamic.NewMaintainerParallel(rec.Graph, e.workers)
		}
	} else {
		lazyK := int(rec.Meta.LazyK)
		if lazyK < 1 {
			metaReason = fmt.Sprintf("persisted lazy-k %d invalid; serving fallback k=10", lazyK)
			lazyK = 10
		}
		if rec.State != nil && rec.StateErr == nil {
			if rec.State.Lazy == nil {
				e.recoverReason = "snapshot maintainer state is for the other maintenance mode"
			} else if lt, err := dynamic.NewLazyTopKFromState(rec.Graph, lazyK, rec.State.Lazy); err != nil {
				e.recoverReason = fmt.Sprintf("maintainer-state import: %v", err)
			} else {
				e.lazy, e.recoverPath, e.recoverReason = lt, "fast", ""
			}
		}
		if e.lazy == nil {
			e.lazy = dynamic.NewLazyTopKParallel(rec.Graph, lazyK, e.workers)
		}
	}
	if metaReason != "" {
		if e.recoverReason != "" {
			e.recoverReason += "; "
		}
		e.recoverReason += metaReason
	}
	// The temporal sidecar of a windowed graph is rebuilt from the
	// snapshot's stamps section before the tail replay, so replayed stamped
	// inserts land in it exactly as they did live. A missing or corrupt
	// section degrades the graph to unwindowed serving — strictly a
	// retention regression, never a correctness one — and is recorded.
	var tempReason string
	switch {
	case rec.StampsErr != nil:
		tempReason = fmt.Sprintf("temporal section unusable, serving unwindowed: %v", rec.StampsErr)
	case rec.Stamps != nil:
		ti, err := graph.NewTemporalIndexFromStamps(int64(rec.Stamps.WindowMS), rec.Graph, rec.Stamps.Stamps)
		if err != nil {
			tempReason = fmt.Sprintf("temporal sidecar rebuild failed, serving unwindowed: %v", err)
		} else {
			e.window = time.Duration(rec.Stamps.WindowMS) * time.Millisecond
			e.tidx = ti
		}
	}
	if tempReason != "" {
		if e.recoverReason != "" {
			e.recoverReason += "; "
		}
		e.recoverReason += tempReason
	}
	lastSeq := rec.Meta.Seq
	for _, b := range rec.Tail {
		e.applyLocked(b.Edges, b.Stamps, b.Insert)
		lastSeq = b.Seq
	}
	e.refreshTemporalLocked()
	// The epoch restarts at wal-seq+1, so it keeps advancing with the
	// batch sequence across restarts instead of snapping back to 1. The
	// recovered view is a fully compacted CSR: replay dirtied state that no
	// previous publication exists to overlay on.
	s := e.buildFullSnapshot(lastSeq + 1)
	s.publishDur = time.Since(t0)
	e.lastCompactNs.Store(s.publishDur.Nanoseconds())
	e.snap.Store(s)
	e.sinceCkpt = len(rec.Tail)
	e.replSeq.Store(lastSeq)
	if r.leader != "" {
		e.replica = true
		e.replCaughtNano.Store(time.Now().UnixNano())
	}
	e.mirrorPersist()
	return e, nil
}

// register publishes a completed entry under its name and starts its writer
// goroutine. On a name collision the entry is NOT registered and the caller
// still owns its resources (notably the store handle).
func (r *Registry) register(e *entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("graph already registered: %w", ErrDuplicate)
	}
	r.entries[e.name] = e
	go e.writerLoop(r)
	return nil
}
