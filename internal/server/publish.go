package server

// This file publishes snapshots (DESIGN.md §10): the O(batch) overlay
// publication inside the write lock, the background compactor that flattens
// the overlay chain, and the full-CSR builds recovery and checkpoints need.

import (
	"time"

	"repro/internal/graph"
)

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

// buildFullSnapshot freezes the maintainer's current graph (and, in
// ModeLocal, its exact scores) into a fully compacted snapshot — a
// standalone CSR, no overlay. Recovery uses it to seed the first published
// view; the steady-state write path publishes overlays instead. It resets
// the maintainer's dirty tracking, which the freeze subsumes. Callers must
// hold e.mu or own the entry exclusively.
func (e *entry) buildFullSnapshot(epoch uint64) *snapshot {
	t0 := time.Now()
	dyn := e.dyn()
	dyn.TakeDirty()
	g := dyn.Freeze(e.workers)
	s := &snapshot{epoch: epoch, view: g, buildWorkers: e.workers}
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
		nview = v
	} else {
		return // already a full CSR
	}
	e.snap.Store(cur.withView(nview))
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
	e.snap.Store(s.withView(g))
	e.compactions.Add(1)
	e.lastCompactNs.Store(time.Since(t0).Nanoseconds())
	return g
}
