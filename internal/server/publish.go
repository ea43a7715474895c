package server

// This file publishes snapshots (DESIGN.md §10): the O(batch) overlay
// publication inside the write lock, and the background compactor — the one
// code path that flattens an overlay chain — which audits the published
// scores on the CSR it flattened. A graph's first snapshot, on its base
// CSR, is restoreEntry's (persist.go).

import (
	"fmt"
	"log/slog"
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
// swap then happens under e.mu: the layers drains stacked on snap's view
// meanwhile are re-anchored onto the new base (sharing their delta maps),
// so their O(batch) publications survive the compaction; with none, the
// new base is the view. Only the compactor replaces a chain and it runs
// one at a time (compacting), so the published chain still holds snap's
// view. Epoch and scores are untouched — the graph the snapshot answers
// for is identical, only its representation changed.
func (e *entry) compact(snap *snapshot) {
	t0 := time.Now()
	g := snap.overlay().Materialize(e.workers)
	flat := time.Since(t0)
	e.audit(snap, g)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compacting.Store(false)
	if e.removed {
		return
	}
	cur := e.snap.Load()
	e.snap.Store(cur.withView(cur.overlay().Rebase(snap.view, g)))
	e.compactions.Add(1)
	e.lastCompactNs.Store(flat.Nanoseconds())
	// Drains may have stacked further layers while this flatten ran:
	// re-check the policy so a too-deep chain cannot outlive the last drain.
	e.maybeCompactLocked()
}

// audit recomputes fresh published scores of snap with the kernel on g, the
// CSR just flattened from snap's view, and holds each to its bits at ==:
// every maintained score is the kernel's fold, so a difference is a
// maintenance fault (DESIGN.md §10). It walks on from where the previous
// audit stopped, charging each vertex the steps its kernel runs — the ego
// build's scan Σ_{u∈N(v)} d(u) plus the steps its counting pass ran —
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
		nu, off, adj := s.EgoCSR(g, v)
		for _, u := range nu {
			spent += int64(g.Degree(u))
		}
		got, steps := s.ScoreCSR(off, adj)
		spent += steps
		if want := snap.scores.At(v); got != want && e.auditMismatches.Add(1) == 1 {
			pub, ker := fmt.Sprintf("%#016x", math.Float64bits(want)), fmt.Sprintf("%#016x", math.Float64bits(got))
			e.auditFirst.Store(fmt.Sprintf("vertex %d at epoch %d: published %s, kernel %s", v, snap.epoch, pub, ker))
			slog.Error("audit mismatch", "graph", e.name, "vertex", v, "epoch", snap.epoch, "published", pub, "kernel", ker)
		}
		audited++
	}
	e.auditNext = v
	e.audited.Add(audited)
}
