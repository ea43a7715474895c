package server

// This file is the write pipeline of a served graph (DESIGN.md §9):
// admission, the per-graph writer goroutine, the one commit path a leader's
// drain and a follower's shipped batches share, and the deterministic batch
// apply that WAL replay shares.

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"time"

	"repro/internal/store"
)

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
// is full — backpressure, not failure. The HTTP layer answers 429 with
// Retry-After: 1 so well-behaved clients pace themselves.
var ErrBacklog = fmt.Errorf("write queue full")

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

// maxBatchGrowth bounds how far one edge batch may grow the vertex set
// beyond the current maximum id. The maintainers grow the vertex set to
// max(u,v)+1 on insert, so without a bound a single request naming vertex
// 2e9 would allocate tens of gigabytes under the write lock.
const maxBatchGrowth = 4096

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

// ApplyEdgesStamped admits a batch of edge insertions (insert=true) or
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
//
// stamps carries explicit admission timestamps (unix ms), one per edge.
// They matter only for insert batches on a sliding-window graph — they
// decide when each edge expires; there a nil stamps assigns the receive
// time to the whole batch, and a client-supplied vector must match the edge
// count. On an unwindowed graph (and on deletes) stamps are meaningless and
// rejected when present, so a client that thinks it is feeding a temporal
// graph finds out instead of silently losing its timeline.
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

// enqueue admits one batch into the write pipeline, failing fast when the
// graph is gone (not-found) or the queue is full (ErrBacklog). The shared
// qmu hold makes the closed-check-then-send atomic against closeWrites.
func (e *entry) enqueue(req *writeReq) error {
	e.qmu.RLock()
	defer e.qmu.RUnlock()
	if e.qclosed {
		return notFound(e.name)
	}
	if err := e.poisonedErr(); err != nil {
		return err
	}
	select {
	case e.queue <- req:
		return nil
	default:
		e.writeRejects.Add(1)
		return fmt.Errorf("server: graph %q: %w (capacity %d, retry in 1s)", e.name, ErrBacklog, cap(e.queue))
	}
}

// writerLoop is the per-graph writer goroutine: it owns the drain side of
// the admission queue for the entry's lifetime, group-committing everything
// waiting, and exits once closeWrites both closed the queue and the loop
// drained it.
//
// On a windowed leader a ticker also wakes the writer often enough that
// edges crossing the window boundary expire promptly even when no client
// writes arrive: a tick runs an expiry-only drain (commitGroup with an
// empty group), which commits nothing when nothing is past the cutoff.
// Followers never tick (tick stays nil) — their expiry arrives as the
// leader's replayed delete batches, keeping both sides bitwise-equal at
// every seq.
func (e *entry) writerLoop(r *Registry) {
	defer close(e.stopped)
	var tick <-chan time.Time
	if e.window > 0 && r.leader == "" {
		ticker := time.NewTicker(min(max(e.window/4, 10*time.Millisecond), time.Second))
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case req, ok := <-e.queue:
			if !ok {
				return
			}
			e.commitGroup(r, e.collectGroup(req))
		case <-tick:
			e.commitGroup(r, nil)
		}
	}
}

// collectGroup gathers the batches of one group commit: the first request
// plus everything already queued, capped at the queue capacity.
//
// The drain yields the scheduler once before committing a short group: a
// sender that just enqueued is scheduled with direct handoff (it readies
// this goroutine ahead of every other runnable writer), so without the
// yield a saturated single-P process degenerates into a one-producer
// ping-pong with groups of one while the remaining writers starve. One
// Gosched moves this goroutine behind the runnable writers, letting them
// land their batches first — bounded, timer-free coalescing.
func (e *entry) collectGroup(first *writeReq) []*writeReq {
	group := []*writeReq{first}
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

// commitGroup is one drain of the write pipeline on a leader: the poison
// check, expiry synthesis on a windowed graph, the group's commit through
// commitLocked — then the acknowledgments. A nil group is an expiry-only
// drain from the writer's ticker; it commits nothing unless edges actually
// expired.
func (e *entry) commitGroup(r *Registry, group []*writeReq) {
	e.mu.Lock()
	err := e.poisonedErr()

	// Expiry synthesis (DESIGN.md §14): on a windowed leader every drain
	// first turns the edges older than now−window into an ordinary delete
	// batch at the head of the group, so it reaches the WAL before anything
	// else this drain does — recovery, instant-recovery imports, and
	// shipped replicas replay expiry as plain history and never need a
	// clock of their own. ExpireBefore returns the edges in canonical order,
	// a deterministic function of the live edge set.
	if err == nil && e.tidx != nil && r.leader == "" {
		cutoff := e.nowMS() - int64(e.window/time.Millisecond)
		if expired := e.tidx.ExpireBefore(cutoff); len(expired) > 0 {
			group = append([]*writeReq{{edges: expired, insert: false}}, group...)
			e.expiredEdges.Add(int64(len(expired)))
			e.expiryBatches.Add(1)
			if cerr := r.serverCrash(e.name, crashAfterExpiry); cerr != nil {
				err = e.poison(cerr)
			}
		}
	}
	var res []UpdateResult
	if err == nil && len(group) > 0 {
		specs := make([]store.BatchSpec, len(group))
		for i, req := range group {
			specs[i] = store.BatchSpec{Insert: req.insert, Edges: req.edges, Stamps: req.stamps}
		}
		res, err = e.commitLocked(r, specs)
	}
	e.mu.Unlock()
	for i, req := range group {
		var ri UpdateResult
		if res != nil {
			ri = res[i]
		}
		req.reply(ri, err)
	}
}

// commitLocked is the one commit path (DESIGN.md §9), run by the leader's
// drain and the follower's shipped batches alike: one WAL append for every
// batch (one fsync), the per-batch apply in order, one snapshot publication
// if anything applied — each result carries the epoch now serving — then
// the compaction and checkpoint policies.
//
// An error wraps ErrStorage and has already poisoned the pipeline: past it
// in-memory and durable state may disagree, so admission (ack=async
// included) fails up front from then on. The results are nil when the
// failure came before the apply; a failed checkpoint comes after it, and
// the results are valid alongside the error. Callers hold e.mu.
func (e *entry) commitLocked(r *Registry, specs []store.BatchSpec) ([]UpdateResult, error) {
	defer e.commitSeconds.ObserveSince(time.Now())
	if e.st != nil {
		if _, err := e.st.AppendBatches(specs); err != nil {
			e.mirrorPersist()
			return nil, e.poison(err)
		}
	}
	if err := r.serverCrash(e.name, crashBeforeApply); err != nil {
		return nil, e.poison(err)
	}
	// Apply each batch through the maintainer, in order — the same
	// deterministic path WAL replay takes on recovery.
	res := make([]UpdateResult, len(specs))
	applied := 0
	for i, sp := range specs {
		res[i] = e.applyLocked(sp.Edges, sp.Stamps, sp.Insert)
		applied += res[i].Applied
	}
	e.refreshTemporalLocked()

	// One snapshot publication for the whole group: an O(batch) overlay on
	// the previous view, never a full CSR export (the compactor owns those).
	epoch := e.snap.Load().epoch
	if applied > 0 {
		if err := r.serverCrash(e.name, crashBeforePublish); err != nil {
			return nil, e.poison(err)
		}
		epoch++
		e.publishLocked(epoch)
		if err := r.serverCrash(e.name, crashAfterPublish); err != nil {
			return nil, e.poison(err)
		}
	}
	for i := range res {
		res[i].Epoch = epoch
	}
	e.groupCommits.Add(1)
	e.coalescedBatches.Add(int64(len(specs)))

	e.maybeCompactLocked()
	if err := e.maybeCheckpoint(r.ckptBatches, r.ckptBytes, len(specs)); err != nil {
		return res, e.poison(err)
	}
	return res, nil
}

// poison stops the pipeline after a durability failure or an injected
// crash, logs the cause, and returns the ErrStorage error the failed commit
// reports.
func (e *entry) poison(cause error) error {
	e.failed.Store(&cause)
	slog.Error("graph poisoned", "graph", e.name, "cause", cause)
	return fmt.Errorf("server: graph %q: %w: %w", e.name, ErrStorage, cause)
}

// poisonedErr is the error every write reports once the pipeline is
// poisoned, or nil while it is healthy.
func (e *entry) poisonedErr() error {
	if perr := e.failed.Load(); perr != nil {
		return fmt.Errorf("server: graph %q: %w: pipeline poisoned by earlier failure: %w", e.name, ErrStorage, *perr)
	}
	return nil
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
	curN := e.m.Graph().NumVertices()
	limit := curN + maxBatchGrowth
	op := e.m.DeleteEdge
	if insert {
		op = e.m.InsertEdge
	}
	for i, ed := range edges {
		if ed[0] >= limit || ed[1] >= limit {
			res.Errors = append(res.Errors, EdgeError{Edge: ed, Error: fmt.Sprintf(
				"server: vertex id exceeds growth limit %d (current n %d + %d per batch)",
				limit, curN, maxBatchGrowth)})
			continue
		}
		if opErr := op(ed[0], ed[1]); opErr != nil {
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
