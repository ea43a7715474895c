package server

// This file is the follower side of snapshot/WAL-shipping replication
// (DESIGN.md §13): the Registry implements ship.Target, so a ship.Follower
// can install leader checkpoints and apply shipped WAL batches into the same
// entries, snapshots, and read paths a leader serves from. Shipped batches
// run through applyLocked — the exact deterministic code the leader's writer
// and crash recovery use — which is what makes a caught-up replica's top-k
// bitwise identical to the leader's at the same applied sequence.

import (
	"fmt"
	"time"

	"repro/internal/ship"
	"repro/internal/store"
)

// The Registry is both halves of the shipping protocol: Source on a leader,
// Target on a follower.
var (
	_ ship.Source = (*Registry)(nil)
	_ ship.Target = (*Registry)(nil)
)

// ReplicaSeq reports the locally applied batch sequence for a graph, or
// ok=false when no such graph is installed — the follower's cue to
// bootstrap from a leader checkpoint instead of tailing.
func (r *Registry) ReplicaSeq(name string) (uint64, bool) {
	e, err := r.get(name)
	if err != nil {
		return 0, false
	}
	return e.replSeq.Load(), true
}

// InstallReplica (re)creates the local graph from a leader checkpoint image.
// Any existing entry under the name is dropped first — this is the path both
// for the initial bootstrap and for a follower whose history diverged from
// the leader's (the checkpoint is the leader's truth). On a durable follower
// the image is installed as the graph's snapshot file and recovered through
// store.Open — the identical fast-import path crash recovery takes — so a
// follower restart resumes from its own disk; without a data dir the image
// is decoded in memory and the entry serves non-durably.
func (r *Registry) InstallReplica(name string, snapshot []byte) error {
	if r.leader == "" {
		return fmt.Errorf("server: graph %q: install replica on a registry that follows no leader", name)
	}
	if err := r.dropEntry(name); err != nil {
		return fmt.Errorf("server: graph %q: drop stale replica: %w", name, err)
	}
	var (
		st  *store.Store
		rec *store.Recovered
	)
	if r.dataDir != "" {
		dir := store.GraphDir(r.dataDir, name)
		if err := store.InstallSnapshot(dir, snapshot); err != nil {
			return fmt.Errorf("server: graph %q: %w", name, err)
		}
		var err error
		st, rec, err = store.Open(dir, r.storeOptions(name)...)
		if err != nil {
			return fmt.Errorf("server: graph %q: open installed replica: %w", name, err)
		}
	} else {
		var err error
		if rec, err = decodeRecovered(snapshot); err != nil {
			return fmt.Errorf("server: graph %q: %w", name, err)
		}
	}
	e, err := r.restoreEntry(name, st, rec)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return fmt.Errorf("server: graph %q: %w", name, err)
	}
	if err := r.register(e); err != nil {
		if st != nil {
			st.Close()
		}
		return fmt.Errorf("server: graph %q: %w", name, err)
	}
	return nil
}

// decodeRecovered turns a checkpoint image into the store.Recovered shape
// restoreEntry consumes, for the memory-only follower path: graph and
// metadata are mandatory, the maintainer-state and permutation sections
// optional exactly as they are for store.Open.
func decodeRecovered(snapshot []byte) (*store.Recovered, error) {
	g, meta, err := store.DecodeSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	rec := &store.Recovered{Meta: meta, Graph: g}
	rec.State, rec.StateErr = store.DecodeSnapshotState(snapshot)
	rec.Perm, rec.PermErr = store.DecodeSnapshotPerm(snapshot)
	rec.Stamps, rec.StampsErr = store.DecodeSnapshotStamps(snapshot)
	return rec, nil
}

// dropEntry unregisters an entry and releases its resources without deleting
// its on-disk state: the internal removal InstallReplica needs (Remove is a
// client mutation — rejected on followers — and deletes the store). Missing
// entries are fine; the bootstrap path always starts here.
func (r *Registry) dropEntry(name string) error {
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	r.mu.Unlock()
	if !ok {
		return nil
	}
	e.closeWrites()
	<-e.stopped
	e.mu.Lock()
	defer e.mu.Unlock()
	e.removed = true
	if e.st != nil {
		return e.st.Close()
	}
	return nil
}

// ApplyReplica applies shipped batches in order: append to the local WAL
// (group append, one fsync), apply each through applyLocked, publish one
// overlay snapshot for the lot, then run the same checkpoint and compaction
// policies a leader runs — so a long-lived follower's disk footprint and
// read-path shape stay bounded exactly like the leader's. Batches must
// continue the local sequence exactly; any discontinuity means the follower
// lost the plot and must re-bootstrap (the error tells it so).
func (r *Registry) ApplyReplica(name string, batches []store.Batch) error {
	if len(batches) == 0 {
		return nil
	}
	e, err := r.get(name)
	if err != nil {
		return err
	}
	if !e.replica {
		return fmt.Errorf("server: graph %q is not a replica", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return notFound(name)
	}
	if perr := e.failed.Load(); perr != nil {
		return fmt.Errorf("server: graph %q: %w: pipeline poisoned by earlier failure: %w", e.name, ErrStorage, *perr)
	}
	want := e.replSeq.Load()
	for i, b := range batches {
		if b.Seq != want+1+uint64(i) {
			return fmt.Errorf("server: graph %q: shipped batch sequence %d where %d was expected", name, b.Seq, want+1+uint64(i))
		}
	}
	if e.st != nil {
		specs := make([]store.BatchSpec, len(batches))
		for i, b := range batches {
			specs[i] = store.BatchSpec{Insert: b.Insert, Edges: b.Edges, Stamps: b.Stamps}
		}
		first, err := e.st.AppendBatches(specs)
		if err != nil {
			e.failed.Store(&err)
			e.mirrorPersist()
			return fmt.Errorf("server: graph %q: %w: %w", e.name, ErrStorage, err)
		}
		if first != batches[0].Seq {
			// The local WAL's next sequence disagrees with the stream's: the
			// local durable history is not the prefix the leader continued
			// from. Poison rather than serve a forked history.
			err := fmt.Errorf("server: graph %q: local wal assigned sequence %d to shipped batch %d — divergent history", name, first, batches[0].Seq)
			e.failed.Store(&err)
			return err
		}
	}
	applied := 0
	for _, b := range batches {
		// Stamps ride the shipped records verbatim, and the leader's expiry
		// deletes arrive as ordinary batches in the same stream — the
		// follower maintains its sidecar without ever consulting a clock, so
		// both sides hold the identical edge set at every common sequence.
		res := e.applyLocked(b.Edges, b.Stamps, b.Insert)
		applied += res.Applied
	}
	e.refreshTemporalLocked()
	e.replSeq.Store(batches[len(batches)-1].Seq)
	if applied > 0 {
		e.publishLocked(e.snap.Load().epoch + 1)
	}
	var ckErr error
	if e.st != nil {
		ckErr = e.maybeCheckpoint(r.ckptBatches, r.ckptBytes, len(batches))
	}
	e.maybeCompactLocked()
	if ckErr != nil {
		e.failed.Store(&ckErr)
		return fmt.Errorf("server: graph %q: %w: %w", e.name, ErrStorage, ckErr)
	}
	return nil
}

// NoteReplica records replication progress for GraphInfo's staleness fields.
func (r *Registry) NoteReplica(name string, leaderSeq uint64, caughtUp bool) {
	e, err := r.get(name)
	if err != nil {
		return
	}
	e.replLeaderSeq.Store(leaderSeq)
	if caughtUp {
		e.replCaughtNano.Store(time.Now().UnixNano())
	}
}
