package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// File names inside a graph's directory. The snapshot is only ever replaced
// by rename, so it is always intact; the WAL is the only file a crash can
// tear, and only at its tail. The lock file carries an exclusive flock held
// for the Store's lifetime, so a second process (or a second Store in this
// process) opening the same directory fails loudly instead of interleaving
// WAL appends; the kernel releases it on any process death, so a kill -9
// never wedges a restart.
const (
	snapshotFile = "snapshot.ebws"
	walFile      = "wal.ebwl"
	lockFile     = "LOCK"
)

// WALHeaderLen is the byte length of the WAL file header — the smallest
// offset a WAL tail stream can start at. Record bytes begin here.
const WALHeaderLen = walHeaderLen

// SnapshotPath returns the snapshot file inside a graph's store directory.
// The file is only ever replaced by an atomic rename, so an independent
// reader (the shipping layer serving a checkpoint) always sees a complete
// snapshot: either the old one or the new one, never a torn mix.
func SnapshotPath(dir string) string { return filepath.Join(dir, snapshotFile) }

// WALPath returns the WAL file inside a graph's store directory. Within one
// segment (between checkpoints) the file is append-only, so any prefix up to
// a byte count observed after a completed append is immutable and safe to
// read from a separate handle while the owner keeps appending.
func WALPath(dir string) string { return filepath.Join(dir, walFile) }

// InstallSnapshot initializes dir with snapshot bytes fetched from elsewhere
// (a leader's checkpoint), validating them first — an unreadable image must
// fail here, not at the Open that follows. No WAL is created and no lock is
// taken: the caller follows up with Open, which starts a fresh log and takes
// the directory lock. Any existing store content in dir is replaced, so a
// replica re-bootstrapping onto a newer checkpoint starts clean.
func InstallSnapshot(dir string, data []byte) error {
	if _, _, err := DecodeSnapshot(data); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	path := SnapshotPath(dir)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	return syncDir(dir)
}

// Crash-hook points. The hook runs at each named point of a durability
// operation; a non-nil return aborts the operation exactly there, leaving
// the on-disk files as a real crash at that instant would. The recovery test
// harness uses this to kill the serving layer mid-checkpoint.
const (
	// CrashBeforeWALAppend fires before a batch record is written: the
	// batch is lost, as if the process died before acknowledging it.
	CrashBeforeWALAppend = "before-wal-append"
	// CrashAfterGroupWrite fires after a group's records have been written
	// but before the single group fsync: the OS has the bytes, the disk may
	// not. A process kill at this point leaves the records readable (so
	// recovery replays them); only a power cut could tear them, which the
	// torn-tail repair already covers.
	CrashAfterGroupWrite = "after-group-write"
	// CrashAfterWALAppend fires after the record is written and synced:
	// the batch is durable even though the caller never applied it.
	CrashAfterWALAppend = "after-wal-append"
	// CrashBeforeCheckpoint fires at checkpoint start (WAL intact).
	CrashBeforeCheckpoint = "before-checkpoint"
	// CrashInStateWrite fires inside the snapshot temp-file write, between
	// the graph part and the maintainer-state section: the temp file is torn
	// mid-section, exactly as a crash there would leave it. The previous
	// snapshot still rules (the torn temp is never renamed in), the full WAL
	// still stands.
	CrashInStateWrite = "in-state-write"
	// CrashAfterSnapshotTmp fires after the new snapshot's temp file is
	// written but before it is renamed into place: the old snapshot still
	// rules, the full WAL still stands.
	CrashAfterSnapshotTmp = "after-snapshot-tmp"
	// CrashAfterSnapshotRename fires after the new snapshot is in place
	// but before the WAL is truncated: recovery must skip WAL records
	// already folded into the snapshot (Seq ≤ Meta.Seq).
	CrashAfterSnapshotRename = "after-snapshot-rename"
)

// Store is the durable state of one served graph: the current snapshot file
// plus an append-only WAL of the batches applied since. Methods are not
// goroutine-safe; the serving layer calls them under its per-graph write
// lock, which is also the WAL's append serialization.
type Store struct {
	dir   string
	sync  bool
	crash func(point string) error

	lock     *os.File // holds the exclusive flock on lockFile
	unmap    func()   // releases the snapshot mapping Open's Recovered aliases; nil when none
	wal      *os.File
	walBytes int64
	seq      uint64 // last batch sequence appended to the WAL
	snapSeq  uint64 // sequence folded into the on-disk snapshot
	snapSize int64  // bytes of the snapshot image last written or opened
	ckpts    int64  // checkpoints taken by this Store instance

	// failed poisons the store after any durability error (including an
	// injected crash): once an append or checkpoint has failed, the WAL
	// state on disk is unknown, and continuing to append could silently
	// orphan acknowledged batches behind a torn record — so every
	// subsequent durable operation fails with the original error instead.
	failed error
}

// Option configures a Store at Create/Open time.
type Option func(*Store)

// WithSync controls fsync on WAL appends (default true). Turning it off
// trades the power-loss guarantee for append latency; process crashes are
// still covered because the OS has the write.
func WithSync(sync bool) Option {
	return func(s *Store) { s.sync = sync }
}

// WithCrashHook installs a crash-injection hook for the recovery tests; see
// the Crash* constants.
func WithCrashHook(h func(point string) error) Option {
	return func(s *Store) { s.crash = h }
}

func newStore(dir string, opts ...Option) *Store {
	s := &Store{dir: dir, sync: true, crash: func(string) error { return nil }}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Create initializes dir as a graph store: the initial snapshot (meta.Seq is
// normally 0) and an empty WAL. An existing store in dir is replaced. On any
// failure the directory is removed again, so a graph whose creation was
// reported as failed can never be resurrected by a later recovery scan.
func Create(dir string, g graph.View, meta SnapshotMeta, opts ...Option) (*Store, error) {
	return CreateWithStamps(dir, g, meta, nil, opts...)
}

// CreateWithStamps is Create for a windowed graph: the initial snapshot
// carries the temporal section (window length + per-edge stamps), so a crash
// before the first checkpoint still recovers the window configuration. A nil
// ts degrades to Create exactly.
func CreateWithStamps(dir string, g graph.View, meta SnapshotMeta, ts *TemporalState, opts ...Option) (*Store, error) {
	s := newStore(dir, opts...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	if err := s.acquireLock(); err != nil {
		return nil, err
	}
	size, err := writeSnapshotFile(filepath.Join(dir, snapshotFile), g, meta, nil, nil, ts, s.crash)
	if err != nil {
		s.releaseLock()
		os.RemoveAll(dir)
		return nil, err
	}
	s.snapSize, s.snapSeq, s.seq = size, meta.Seq, meta.Seq
	if err := s.resetWAL(); err != nil {
		s.releaseLock()
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// Recovered is what Open found on disk: the snapshot and the ordered WAL
// tail to replay on top of it.
type Recovered struct {
	Meta  SnapshotMeta
	Graph *graph.Graph
	// Tail holds the WAL batches with Seq > Meta.Seq, in append order, with
	// consecutive sequences. Replaying them through the same deterministic
	// application code the live writer uses reproduces the pre-crash state.
	Tail []Batch
	// TornBytes is how many trailing WAL bytes were dropped (and truncated
	// away) because a crash tore the final record; 0 on a clean shutdown.
	TornBytes int64
	// State is the snapshot's decoded maintainer-state section, when one was
	// written (CheckpointFull) and decoded cleanly — the fast-recovery
	// input: import it and replay only Tail, skipping the maintainer rebuild.
	// nil means recover by rebuilding; StateErr distinguishes "the snapshot
	// never carried state" (nil — every version-1 file) from "the section was
	// present but unusable" (the decode error). State trouble never fails
	// Open: the graph part is independently checksummed and still serves.
	State    *MaintainerState
	StateErr error
	// Perm is the snapshot's relabel permutation (perm[external] = internal)
	// when one was checkpointed (CheckpointFull) and decoded cleanly; the
	// serving layer no longer reads it (perm.go). PermErr mirrors StateErr's distinction between "never written"
	// (nil) and "present but unusable" (the decode error); neither fails
	// Open.
	Perm    []int32
	PermErr error
	// Stamps is the snapshot's temporal section (window length + per-edge
	// admission stamps in canonical CSR order) when the graph was windowed;
	// nil for unwindowed graphs. StampsErr mirrors StateErr's distinction
	// between "never written" (nil) and "present but unusable" (the decode
	// error); neither fails Open — the graph serves unwindowed instead.
	Stamps    *TemporalState
	StampsErr error
}

// Open recovers the store in dir: load the snapshot, decode the WAL, repair
// a torn tail by truncation, and hand back the batches that post-date the
// snapshot. The returned Store appends after the repaired tail.
//
// The snapshot is mapped, and rec.State and rec.Perm alias the mapping
// (rec.Graph, rec.Stamps and rec.Tail are copies). The Store owns it: Close
// unmaps it, so whatever imported rec.State must be done with it first.
func Open(dir string, opts ...Option) (st *Store, rec *Recovered, err error) {
	s := newStore(dir, opts...)
	if err := s.acquireLock(); err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			s.releaseMapping()
			s.releaseLock()
		}
	}()
	rec, s.snapSize, s.unmap, err = readSnapshotFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, nil, err
	}
	meta := rec.Meta
	s.snapSeq = meta.Seq
	s.seq = meta.Seq

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	switch {
	case os.IsNotExist(err):
		// A crash between Create's snapshot write and WAL creation: no
		// batch was ever acknowledged, start a fresh log.
		if err := s.resetWAL(); err != nil {
			return nil, nil, err
		}
		return s, rec, nil
	case err != nil:
		return nil, nil, fmt.Errorf("store: open wal: %w", err)
	}
	if len(data) < walHeaderLen {
		// A crash inside resetWAL's truncate→header window (checkpoint or
		// create). The snapshot that preceded the truncation is intact and
		// folds every acknowledged batch, and nothing can have been
		// appended after a header that was never completed — so this is an
		// empty log, not corruption.
		rec.TornBytes = int64(len(data))
		if err := s.resetWAL(); err != nil {
			return nil, nil, err
		}
		return s, rec, nil
	}
	batches, valid, err := DecodeWAL(data)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", walPath, err)
	}
	rec.TornBytes = int64(len(data)) - int64(valid)
	// Keep the tail that post-dates the snapshot, insisting on consecutive
	// sequences: the writer assigns Seq = prev+1 under its lock, so a gap or
	// regression can only mean corruption that happened to pass the CRCs —
	// fail loud rather than replay a wrong history.
	for _, b := range batches {
		if b.Seq <= meta.Seq {
			continue
		}
		if b.Seq != s.seq+1 {
			return nil, nil, fmt.Errorf("store: %s: batch sequence %d after %d (snapshot at %d)", walPath, b.Seq, s.seq, meta.Seq)
		}
		rec.Tail = append(rec.Tail, b)
		s.seq = b.Seq
	}

	f, err := os.OpenFile(walPath, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open wal: %w", err)
	}
	if rec.TornBytes > 0 {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: repair torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seek wal end: %w", err)
	}
	s.wal = f
	s.walBytes = int64(valid)
	return s, rec, nil
}

// fail poisons the store with err (keeping the first failure) and returns
// it.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// BatchSpec is one batch of a group append: the client-submitted edges and
// the operation, before a sequence number is assigned. Stamps, when non-nil,
// carries one admission timestamp per edge (windowed graphs); it rides the
// WAL record so replay sees the stamps the live writer applied.
type BatchSpec struct {
	Insert bool
	Edges  [][2]int32
	Stamps []int64
}

// AppendBatches is the group commit: it makes n batches durable as n
// consecutive per-batch WAL records — so recovery replay is byte-for-byte
// the same as n individual appends — but pays one write and one fsync for
// the whole group. It returns the sequence assigned to the first batch;
// batch i gets first+i. Callers append before applying: a batch whose
// append fails must not be applied, and a batch whose append succeeded will
// be replayed on recovery even if the process dies before applying it. The
// group is durable as a unit (one fsync covers it), and any failure — a
// partial write, a failed fsync — poisons the store (see Store.failed) with
// the whole group un-acknowledged: accepting further appends after a write
// of unknown extent could orphan them behind a torn record, silently
// un-acknowledging them.
func (s *Store) AppendBatches(specs []BatchSpec) (uint64, error) {
	if len(specs) == 0 {
		return 0, fmt.Errorf("store: empty append group")
	}
	if s.failed != nil {
		return 0, fmt.Errorf("store: poisoned by earlier failure: %w", s.failed)
	}
	if err := s.crash(CrashBeforeWALAppend); err != nil {
		return 0, s.fail(err)
	}
	first := s.seq + 1
	var buf []byte
	for i, sp := range specs {
		buf = append(buf, EncodeBatch(Batch{Seq: first + uint64(i), Insert: sp.Insert, Edges: sp.Edges, Stamps: sp.Stamps})...)
	}
	if _, err := s.wal.Write(buf); err != nil {
		return 0, s.fail(fmt.Errorf("store: wal append: %w", err))
	}
	if err := s.crash(CrashAfterGroupWrite); err != nil {
		return 0, s.fail(err)
	}
	if s.sync {
		if err := s.wal.Sync(); err != nil {
			return 0, s.fail(fmt.Errorf("store: wal sync: %w", err))
		}
	}
	s.seq += uint64(len(specs))
	s.walBytes += int64(len(buf))
	if err := s.crash(CrashAfterWALAppend); err != nil {
		return 0, s.fail(err)
	}
	return first, nil
}

// CheckpointFull atomically replaces the snapshot with g (which must reflect
// every batch up to meta.Seq, normally Seq()) and truncates the WAL. A crash
// anywhere inside leaves a recoverable store: either the old snapshot with
// the full WAL, or the new snapshot with a WAL whose stale prefix recovery
// skips by sequence. Each optional section rides in the version-2 format
// under its own checksum; with all three nil or empty the file is version 1:
// st is the maintainer state exported at the same instant as g, which the
// next recovery imports instead of rebuilding; perm a relabel permutation
// (perm[external] = internal; the serving layer passes none, see perm.go);
// ts the temporal state of a windowed graph (window length + per-edge
// admission stamps), so the next recovery resumes expiring without
// re-deriving any stamp.
func (s *Store) CheckpointFull(g graph.View, meta SnapshotMeta, st *MaintainerState, perm []int32, ts *TemporalState) error {
	if s.failed != nil {
		return fmt.Errorf("store: poisoned by earlier failure: %w", s.failed)
	}
	if err := s.crash(CrashBeforeCheckpoint); err != nil {
		return s.fail(err)
	}
	size, err := writeSnapshotFile(filepath.Join(s.dir, snapshotFile), g, meta, st, perm, ts, s.crash)
	if err != nil {
		return s.fail(err)
	}
	s.snapSeq, s.snapSize = meta.Seq, size
	if err := s.crash(CrashAfterSnapshotRename); err != nil {
		return s.fail(err)
	}
	if err := s.resetWAL(); err != nil {
		return s.fail(err)
	}
	s.ckpts++
	return nil
}

// resetWAL (re)creates an empty WAL containing just the file header,
// reusing the open handle when there is one.
func (s *Store) resetWAL() error {
	if s.wal == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, walFile), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("store: create wal: %w", err)
		}
		s.wal = f
	} else {
		if err := s.wal.Truncate(0); err != nil {
			return fmt.Errorf("store: truncate wal: %w", err)
		}
		if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("store: rewind wal: %w", err)
		}
	}
	if _, err := s.wal.Write(walFileHeader()); err != nil {
		return fmt.Errorf("store: wal header: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	s.walBytes = walHeaderLen
	return nil
}

// Seq returns the last batch sequence made durable.
func (s *Store) Seq() uint64 { return s.seq }

// SnapshotSeq returns the sequence folded into the on-disk snapshot.
func (s *Store) SnapshotSeq() uint64 { return s.snapSeq }

// WALBytes returns the current WAL file size.
func (s *Store) WALBytes() int64 { return s.walBytes }

// SnapshotBytes returns the size of the snapshot image this Store last
// wrote (Create, CheckpointFull) or opened.
func (s *Store) SnapshotBytes() int64 { return s.snapSize }

// Checkpoints returns how many checkpoints this Store instance has taken.
func (s *Store) Checkpoints() int64 { return s.ckpts }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the WAL handle, the snapshot mapping Open made and the
// directory lock. The store stays recoverable via Open.
func (s *Store) Close() error {
	var err error
	if s.wal != nil {
		err = s.wal.Close()
		s.wal = nil
	}
	s.releaseMapping()
	s.releaseLock()
	return err
}

// releaseMapping unmaps the snapshot Open mapped, once.
func (s *Store) releaseMapping() {
	if s.unmap != nil {
		s.unmap()
		s.unmap = nil
	}
}

// Remove closes the store and deletes its directory.
func (s *Store) Remove() error {
	s.Close()
	return os.RemoveAll(s.dir)
}

// acquireLock takes the exclusive, non-blocking flock on the store
// directory's lock file. The kernel drops it on process death (including
// kill -9), so crashes never wedge a restart, while a concurrently running
// second opener — same process or another — fails immediately.
func (s *Store) acquireLock() error {
	f, err := os.OpenFile(filepath.Join(s.dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: lock file: %w", err)
	}
	if err := flockExclusive(f); err != nil {
		f.Close()
		return fmt.Errorf("store: %s is in use by another opener: %w", s.dir, err)
	}
	s.lock = f
	return nil
}

func (s *Store) releaseLock() {
	if s.lock != nil {
		s.lock.Close() // closing the descriptor releases the flock
		s.lock = nil
	}
}
