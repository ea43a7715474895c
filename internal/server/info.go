package server

// This file is the accounting surface: GraphInfo and the stats payload.

import "time"

// GraphInfo summarizes one served graph.
//
// PublishMS is how long the currently served snapshot's publication took:
// for the first snapshot of a loaded or recovered graph, the whole build
// (maintainer, tail replay, base CSR); for later epochs, the O(batch)
// overlay publication inside the write lock. CompactMS is the background
// compactor's last flatten of the overlay chain into a fresh base CSR, run
// off the write path; Compactions counts those flattens. Both are 0 at load
// and after recovery, until the compactor first runs. BuildWorkers is the
// worker budget compactions and freezes shard across.
type GraphInfo struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode"`
	Epoch        uint64  `json:"epoch"`
	N            int32   `json:"n"`
	M            int64   `json:"m"`
	BuildWorkers int     `json:"build_workers"`
	PublishMS    float64 `json:"publish_ms"`
	CompactMS    float64 `json:"compact_ms"`

	// Overlay accounting (DESIGN.md §10): how many delta layers the served
	// view stacks on its base CSR (0 = fully compacted), the dirty-vertex
	// total across those layers, how many compactions have folded the chain
	// since this process opened the graph, and how many score entries the
	// copy-on-write score vector materialized across all drains (chunk
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
	// Poisoned is the cause of the durability failure (or injected crash)
	// that stopped the write pipeline; every later write fails with 500
	// until the process restarts and recovers from disk.
	Poisoned string `json:"poisoned,omitempty"`

	// Persistence accounting (WithDataDir only): the last durable WAL batch
	// sequence, the current WAL size, the sequence folded into the on-disk
	// snapshot and that image's size, and the checkpoints taken since this
	// process opened the graph.
	Persisted     bool   `json:"persisted,omitempty"`
	WALSeq        uint64 `json:"wal_seq,omitempty"`
	WALBytes      int64  `json:"wal_bytes,omitempty"`
	SnapshotSeq   uint64 `json:"snapshot_seq,omitempty"`
	SnapshotBytes int64  `json:"snapshot_bytes,omitempty"`
	Checkpoints   int64  `json:"checkpoints,omitempty"`

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

	// Audit accounting (set once a background compaction has run): the
	// published scores the compactor recomputed with the kernel, how many
	// differed from its bits, and the first that did, with both patterns.
	Audited            int64  `json:"audited,omitempty"`
	AuditMismatches    int64  `json:"audit_mismatches,omitempty"`
	AuditFirstMismatch string `json:"audit_first_mismatch,omitempty"`

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
		BuildWorkers:     e.workers,
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
	if perr := e.failed.Load(); perr != nil {
		gi.Poisoned = (*perr).Error()
	}
	if ov := s.overlay(); ov != nil {
		gi.OverlayDepth = ov.Depth()
		gi.DirtyVertices = ov.DirtyVertices()
	}
	if e.st != nil {
		gi.Persisted = true
		gi.WALSeq = e.walSeq.Load()
		gi.WALBytes = e.walBytes.Load()
		gi.SnapshotSeq = e.snapSeq.Load()
		gi.SnapshotBytes = e.snapBytes.Load()
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
	gi.Audited = e.audited.Load()
	gi.AuditMismatches = e.auditMismatches.Load()
	gi.AuditFirstMismatch, _ = e.auditFirst.Load().(string)
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
	out := make([]GraphInfo, 0, r.Len()) // an empty registry lists [], not null
	r.each(func(e *entry) { out = append(out, e.info()) })
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
	gs := e.counters(s)
	st := s.Stats()
	gs.DMax, gs.AvgDeg, gs.Triangles = st.DMax, st.AvgDeg, st.Triangles
	return gs, nil
}
