package server

// This file is the write pipeline of a served graph (DESIGN.md §9):
// admission, the per-graph writer goroutine, the group commit, and the
// deterministic batch apply that WAL replay shares.

import (
	"fmt"
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
