package server

// This file publishes snapshots (DESIGN.md §10): the O(batch) overlay
// publication inside the write lock, the background compactor that flattens
// the overlay chain and audits the published scores on the flattened CSR,
// and the full-CSR builds recovery and checkpoints need.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/ego"
	"repro/internal/graph"
)

// publishLocked publishes the post-drain state as a copy-on-write snapshot:
// a graph.Overlay carrying only the adjacency lists this drain dirtied,
// layered on the previous view, and a score vector sharing every chunk no
// score or stale flag of which changed. Both costs are O(batch), so the
// write lock holds publication latency independent of the graph size — the
// O(n+m) work moved to the background compactor. Callers must hold e.mu.
func (e *entry) publishLocked(epoch uint64) {
	t0 := time.Now()
	old := e.snap.Load()
	sv, copied := old.scores.withUpdates(e.m.All(), e.m.Stale(), e.m.TakeDirtyScores())
	s := &snapshot{epoch: epoch, view: e.m.Graph().FreezeOverlay(old.view), scores: sv}
	if copied > 0 {
		e.scoresCopied.Add(int64(copied) * scoreChunkSize)
	}
	s.publishDur = time.Since(t0)
	e.snap.Store(s)
}

// buildFullSnapshot freezes the maintainer's current graph and scores into
// a fully compacted snapshot — a standalone CSR, no overlay. Recovery uses
// it to seed the first published view; the steady-state write path
// publishes overlays instead. It resets the maintainer's dirty tracking,
// which the freeze subsumes. Callers must hold e.mu or own the entry
// exclusively.
func (e *entry) buildFullSnapshot(epoch uint64) *snapshot {
	t0 := time.Now()
	dyn := e.m.Graph()
	dyn.TakeDirty()
	e.m.TakeDirtyScores()
	s := &snapshot{epoch: epoch, view: dyn.Freeze(e.workers), scores: newScoreVec(e.m.All(), e.m.Stale())}
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

// compact flattens the overlay chain of snap into a fresh base CSR, audits
// a slice of snap's scores on it, and republishes. The O(n+m) Materialize
// and the audit read only immutable state, so they run with no lock held —
// readers keep reading, the writer keeps publishing layers on top. The
// swap then happens under e.mu: if the published snapshot is still snap,
// its view is simply replaced; if drains landed meanwhile, the layers they
// stacked on top are re-anchored onto the new base (sharing their delta
// maps), so their O(batch) publications survive the compaction. Epoch and
// scores are untouched — the graph the snapshot answers for is identical,
// only its representation changed.
func (e *entry) compact(snap *snapshot) {
	ov := snap.overlay()
	if ov == nil {
		e.compacting.Store(false)
		return
	}
	t0 := time.Now()
	g := ov.Materialize(e.workers)
	flat := time.Since(t0)
	e.audit(snap, g)
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
	e.lastCompactNs.Store(flat.Nanoseconds())
}

// audit recomputes fresh published scores of snap with the kernel on g, the
// CSR just flattened from snap's view, and holds each to its bits at ==:
// every maintained score is the kernel's fold, so a difference is a
// maintenance fault (DESIGN.md §10). It walks on from where the previous
// audit stopped, charging each vertex its ego-build price Σ_{u∈N(v)} d(u),
// until the charge reaches the CSR's 2m, auditing one score at least. A
// stale score (ModeLazy) is a bound: it is skipped uncharged. Only the
// compactor holding compacting calls it, so auditNext has one writer, and
// n never shrinks, so auditNext < n.
func (e *entry) audit(snap *snapshot, g *graph.Graph) {
	s := egoScratch.Get().(*ego.Scratch)
	defer egoScratch.Put(s)
	n, v := g.NumVertices(), e.auditNext
	var spent, audited int64
	for i := int32(0); i < n && (audited == 0 || spent < 2*g.NumEdges()); i, v = i+1, (v+1)%n {
		if snap.scores.Stale(v) {
			continue
		}
		for _, u := range g.Neighbors(v) {
			spent += int64(g.Degree(u))
		}
		if got, want := ego.EgoBetweenness(g, v, s), snap.scores.At(v); got != want && e.auditMismatches.Add(1) == 1 {
			e.auditFirst.Store(fmt.Sprintf("vertex %d at epoch %d: published %#016x, kernel %#016x",
				v, snap.epoch, math.Float64bits(want), math.Float64bits(got)))
		}
		audited++
	}
	e.auditNext = v
	e.audited.Add(audited)
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
