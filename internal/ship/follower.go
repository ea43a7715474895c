package ship

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/store"
)

// followState is one graph's replication cursor. offset < 0 marks a cursor
// that lost its segment position (follower restart, leader checkpoint) and
// must resynchronize before tailing again.
type followState struct {
	bootstrapped bool   // local state exists and descends from a leader checkpoint
	segment      uint64 // WAL segment being tailed
	offset       int64  // next byte to fetch within the segment (<0: resync needed)
	next         uint64 // sequence the record at offset must carry
	applied      uint64 // last sequence applied locally
}

// Follower drives a Target from a leader's shipping endpoints: bootstrap
// from a checkpoint, tail the WAL stream, resynchronize across leader
// checkpoints and restarts. One sync pass per graph per interval; within a
// pass it loops until caught up, so a fresh or lagging follower converges at
// fetch speed rather than one chunk per tick.
//
// Not safe for concurrent use — run one Follower per Target, either via Run
// or by calling SyncOnce from a single goroutine (tests do the latter).
type Follower struct {
	client   *Client
	target   Target
	interval time.Duration
	state    map[string]*followState
	failed   int // consecutive failed listings; only the first is logged
}

// FollowerOption configures a Follower.
type FollowerOption func(*Follower)

// WithInterval sets the poll interval for Run (default 200ms).
func WithInterval(d time.Duration) FollowerOption {
	return func(f *Follower) {
		if d > 0 {
			f.interval = d
		}
	}
}

// NewFollower wires a client to a target.
func NewFollower(client *Client, target Target, opts ...FollowerOption) *Follower {
	f := &Follower{
		client:   client,
		target:   target,
		interval: 200 * time.Millisecond,
		state:    make(map[string]*followState),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Run polls until ctx is cancelled. Errors are logged and retried next
// tick, never fatal — a follower outlives leader restarts by design.
func (f *Follower) Run(ctx context.Context) error {
	ticker := time.NewTicker(f.interval)
	defer ticker.Stop()
	for {
		_ = f.SyncOnce(ctx) // SyncOnce logs each failure
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// SyncOnce runs one full pass: enumerate graphs, then bootstrap/tail each
// until it is caught up with the leader's durable sequence. Per-graph
// failures don't stop the pass; the joined error reports them all, and
// each is logged at Error unless ctx was cancelled. An unreachable leader
// fails every poll, so only the first failed listing of a run is logged;
// the next listing that succeeds logs one Info line with the count.
func (f *Follower) SyncOnce(ctx context.Context) error {
	names, err := f.client.Graphs(ctx)
	if err != nil {
		if ctx.Err() == nil {
			if f.failed == 0 {
				slog.Error("follower listing failed", "err", err)
			}
			f.failed++
		}
		return fmt.Errorf("listing leader graphs: %w", err)
	}
	if f.failed > 0 {
		slog.Info("follower leader reachable", "failed_polls", f.failed)
		f.failed = 0
	}
	var errs []error
	for _, name := range names {
		if err := f.syncGraph(ctx, name); err != nil {
			if ctx.Err() == nil {
				st := f.state[name]
				slog.Error("follower sync failed", "graph", name, "seq", st.applied, "segment", st.segment, "err", err)
			}
			errs = append(errs, fmt.Errorf("graph %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// syncGraph advances one graph's cursor as far as the leader's durable end.
func (f *Follower) syncGraph(ctx context.Context, name string) error {
	st := f.state[name]
	if st == nil {
		st = &followState{}
		// Adopt pre-existing local state (follower restart with a data dir):
		// trust the applied sequence, but the segment position is unknown
		// until a resync against the leader's status.
		if seq, ok := f.target.ReplicaSeq(name); ok {
			st.bootstrapped, st.applied, st.offset = true, seq, -1
			slog.Info("follower adopted local state", "graph", name, "seq", seq)
		}
		f.state[name] = st
	}
	if !st.bootstrapped {
		if err := f.bootstrap(ctx, name, st); err != nil {
			return err
		}
	}
	if st.offset < 0 {
		if err := f.resync(ctx, name, st); err != nil {
			return err
		}
		if !st.bootstrapped { // resync decided a checkpoint is required
			if err := f.bootstrap(ctx, name, st); err != nil {
				return err
			}
		}
	}
	return f.tail(ctx, name, st)
}

// bootstrap installs the leader's current checkpoint and aims the cursor at
// the head of the segment it anchors.
func (f *Follower) bootstrap(ctx context.Context, name string, st *followState) error {
	data, err := f.client.Checkpoint(ctx, name)
	if err != nil {
		return fmt.Errorf("fetching checkpoint: %w", err)
	}
	meta, err := store.PeekSnapshotMeta(data)
	if err != nil {
		return fmt.Errorf("shipped checkpoint: %w", err)
	}
	if err := f.target.InstallReplica(name, data); err != nil {
		return fmt.Errorf("installing checkpoint: %w", err)
	}
	st.bootstrapped = true
	st.applied = meta.Seq
	st.segment = meta.Seq
	st.offset = store.WALHeaderLen
	st.next = meta.Seq + 1
	slog.Info("follower bootstrapped", "graph", name, "seq", meta.Seq, "segment", st.segment, "bytes", len(data))
	return nil
}

// resync re-aims a cursor whose segment position is stale or unknown. If the
// leader's current segment still starts at or before our applied sequence we
// tail it from the top (records ≤ applied are skipped on arrival); if the
// leader has checkpointed past us — or regressed behind us, meaning its
// history diverged from what we applied — only a fresh checkpoint restores a
// common prefix, so bootstrapped is cleared for the caller to re-bootstrap.
func (f *Follower) resync(ctx context.Context, name string, st *followState) error {
	ls, err := f.client.Status(ctx, name)
	if err != nil {
		return fmt.Errorf("fetching status for resync: %w", err)
	}
	if ls.Segment > st.applied || ls.Seq < st.applied {
		slog.Warn("follower re-bootstrapping", "graph", name, "seq", st.applied, "segment", ls.Segment, "leader_seq", ls.Seq)
		st.bootstrapped = false
		return nil
	}
	st.segment = ls.Segment
	st.offset = store.WALHeaderLen
	st.next = ls.Segment + 1
	slog.Info("follower resynced", "graph", name, "seq", st.applied, "segment", st.segment)
	return nil
}

// tail fetches and applies WAL chunks until the cursor reaches the leader's
// durable sequence. Chunks ending mid-record advance by the complete prefix
// only; ErrSegmentGone triggers a resync; a decode hard error condemns the
// local stream state and forces a checkpoint re-bootstrap on the next pass.
func (f *Follower) tail(ctx context.Context, name string, st *followState) error {
	for {
		data, leaderSeq, err := f.client.WALTail(ctx, name, st.segment, st.offset)
		if errors.Is(err, ErrSegmentGone) {
			st.offset = -1
			slog.Info("follower segment gone", "graph", name, "seq", st.applied, "segment", st.segment)
			return nil
		}
		if err != nil {
			return fmt.Errorf("fetching wal tail: %w", err)
		}
		batches, consumed, derr := store.DecodeStream(data, st.next)
		// On a hard decode error the valid prefix still applies below — those
		// records passed their checksums and sequence checks, and serving
		// them keeps readers fresher while the re-bootstrap runs.
		// Drop already-applied records (a resync tails the segment from its
		// head, overlapping what we hold) and apply the rest in order.
		fresh := batches
		for len(fresh) > 0 && fresh[0].Seq <= st.applied {
			fresh = fresh[1:]
		}
		if len(fresh) > 0 {
			if err := f.target.ApplyReplica(name, fresh); err != nil {
				return fmt.Errorf("applying %d batches at seq %d: %w", len(fresh), fresh[0].Seq, err)
			}
			st.applied = fresh[len(fresh)-1].Seq
		}
		if n := len(batches); n > 0 {
			st.next = batches[n-1].Seq + 1
		}
		st.offset += int64(consumed)
		if derr != nil {
			// The stream betrayed its contract; nothing downstream of the
			// checkpoint can be trusted anymore. Reinstall from scratch.
			st.bootstrapped = false
			st.offset = -1
			return fmt.Errorf("wal stream at segment %d: %w", st.segment, derr)
		}
		caughtUp := st.applied >= leaderSeq
		f.target.NoteReplica(name, leaderSeq, caughtUp)
		if caughtUp || consumed == 0 {
			return nil
		}
	}
}
