package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(6, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStoreCreateOpenReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	g := testGraph(t)
	s, err := Create(dir, g, SnapshotMeta{Mode: 0})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][][2]int32{{{0, 3}}, {{1, 4}, {2, 5}}, {{0, 1}}}
	for i, edges := range batches {
		insert := i != 2
		seq, err := s.AppendBatches(one(insert, edges))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	sameGraph(t, rec.Graph, g)
	if rec.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rec.TornBytes)
	}
	if len(rec.Tail) != 3 {
		t.Fatalf("tail has %d batches, want 3", len(rec.Tail))
	}
	for i, b := range rec.Tail {
		if b.Seq != uint64(i+1) || b.Insert != (i != 2) || len(b.Edges) != len(batches[i]) {
			t.Fatalf("tail[%d] = %+v", i, b)
		}
	}
	if s2.Seq() != 3 || s2.SnapshotSeq() != 0 {
		t.Fatalf("seq=%d snapSeq=%d, want 3/0", s2.Seq(), s2.SnapshotSeq())
	}
	// Appends continue after the recovered tail.
	if seq, err := s2.AppendBatches(one(true, [][2]int32{{5, 0}})); err != nil || seq != 4 {
		t.Fatalf("post-recovery append: seq=%d err=%v", seq, err)
	}
}

// TestStoreTornTailRepair: garbage appended to the WAL (a torn final write)
// is dropped and truncated away on Open, and the store appends cleanly from
// the repaired end.
func TestStoreTornTailRepair(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	s, err := Create(dir, testGraph(t), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatches(one(true, [][2]int32{{0, 3}})); err != nil {
		t.Fatal(err)
	}
	s.Close()

	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := EncodeBatch(Batch{Seq: 2, Insert: true, Edges: [][2]int32{{1, 4}}})
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != int64(len(torn)-3) {
		t.Fatalf("torn bytes = %d, want %d", rec.TornBytes, len(torn)-3)
	}
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 1 {
		t.Fatalf("tail = %+v, want just seq 1", rec.Tail)
	}
	// The repair is durable: append, close, and the next Open sees a clean
	// log with consecutive sequences.
	if seq, err := s2.AppendBatches(one(false, [][2]int32{{0, 3}})); err != nil || seq != 2 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	s2.Close()
	_, rec3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.TornBytes != 0 || len(rec3.Tail) != 2 {
		t.Fatalf("after repair: torn=%d tail=%d, want 0/2", rec3.TornBytes, len(rec3.Tail))
	}
}

func TestStoreCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	g := testGraph(t)
	s, err := Create(dir, g, SnapshotMeta{Mode: 1, LazyK: 5})
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.DynFromGraph(g)
	for _, e := range [][2]int32{{0, 3}, {1, 4}} {
		if _, err := s.AppendBatches(one(true, [][2]int32{e})); err != nil {
			t.Fatal(err)
		}
		if err := dyn.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	preBytes := s.WALBytes()
	if err := s.CheckpointFull(dyn.Freeze(1), SnapshotMeta{Mode: 1, LazyK: 5, Seq: s.Seq()}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s.WALBytes() >= preBytes || s.SnapshotSeq() != 2 || s.Checkpoints() != 1 {
		t.Fatalf("after checkpoint: walBytes=%d snapSeq=%d ckpts=%d", s.WALBytes(), s.SnapshotSeq(), s.Checkpoints())
	}
	if _, err := s.AppendBatches(one(false, [][2]int32{{0, 1}})); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Meta.Seq != 2 || rec.Meta.Mode != 1 || rec.Meta.LazyK != 5 {
		t.Fatalf("recovered meta = %+v", rec.Meta)
	}
	sameGraph(t, rec.Graph, dyn.Freeze(1))
	if len(rec.Tail) != 1 || rec.Tail[0].Seq != 3 || rec.Tail[0].Insert {
		t.Fatalf("tail = %+v, want only seq 3 (delete)", rec.Tail)
	}
}

// TestStoreCrashHooks drives every injection point and verifies what a
// subsequent Open recovers — the file-level statement of the recovery
// invariant (the e2e statement lives in internal/server's recovery suite).
func TestStoreCrashHooks(t *testing.T) {
	errBoom := errors.New("injected crash")
	g := testGraph(t)

	// setup builds a store with one applied+logged batch and a crash hook
	// armed at the given point.
	setup := func(t *testing.T, point string) (*Store, *graph.DynGraph) {
		dir := filepath.Join(t.TempDir(), "g")
		armed := false
		s, err := Create(dir, g, SnapshotMeta{}, WithCrashHook(func(p string) error {
			if armed && p == point {
				return errBoom
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		dyn := graph.DynFromGraph(g)
		if _, err := s.AppendBatches(one(true, [][2]int32{{0, 3}})); err != nil {
			t.Fatal(err)
		}
		if err := dyn.InsertEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		armed = true
		return s, dyn
	}

	t.Run(CrashBeforeWALAppend, func(t *testing.T) {
		s, _ := setup(t, CrashBeforeWALAppend)
		if _, err := s.AppendBatches(one(true, [][2]int32{{1, 4}})); !errors.Is(err, errBoom) {
			t.Fatalf("err = %v", err)
		}
		s.Close()
		_, rec, err := Open(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Tail) != 1 { // the crashed batch was never logged
			t.Fatalf("tail = %+v, want 1 batch", rec.Tail)
		}
	})

	t.Run(CrashAfterWALAppend, func(t *testing.T) {
		s, _ := setup(t, CrashAfterWALAppend)
		if _, err := s.AppendBatches(one(true, [][2]int32{{1, 4}})); !errors.Is(err, errBoom) {
			t.Fatalf("err = %v", err)
		}
		s.Close()
		_, rec, err := Open(s.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Tail) != 2 { // durable despite the crash: must be replayed
			t.Fatalf("tail = %+v, want 2 batches", rec.Tail)
		}
	})

	ckptPoints := []struct {
		point    string
		snapSeq  uint64 // snapshot sequence Open should see
		tailLen  int
		tornWAL  bool
		newGraph bool // recovered graph is the checkpointed one
	}{
		{CrashBeforeCheckpoint, 0, 1, false, false},
		{CrashAfterSnapshotTmp, 0, 1, false, false},
		{CrashAfterSnapshotRename, 1, 0, false, true},
	}
	for _, tc := range ckptPoints {
		t.Run(tc.point, func(t *testing.T) {
			s, dyn := setup(t, tc.point)
			err := s.CheckpointFull(dyn.Freeze(1), SnapshotMeta{Seq: s.Seq()}, nil, nil, nil)
			if !errors.Is(err, errBoom) {
				t.Fatalf("err = %v", err)
			}
			s.Close()
			_, rec, err := Open(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if rec.Meta.Seq != tc.snapSeq {
				t.Fatalf("snapshot seq = %d, want %d", rec.Meta.Seq, tc.snapSeq)
			}
			if len(rec.Tail) != tc.tailLen {
				t.Fatalf("tail = %+v, want %d batches", rec.Tail, tc.tailLen)
			}
			want := g
			if tc.newGraph {
				want = dyn.Freeze(1)
			}
			sameGraph(t, rec.Graph, want)
			// Whatever the crash point, snapshot ⊕ tail reproduces the
			// applied state.
			final := graph.DynFromGraph(rec.Graph)
			for _, b := range rec.Tail {
				for _, e := range b.Edges {
					if b.Insert {
						if err := final.InsertEdge(e[0], e[1]); err != nil {
							t.Fatal(err)
						}
					} else {
						if err := final.DeleteEdge(e[0], e[1]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			sameGraph(t, final.Freeze(1), dyn.Freeze(1))
		})
	}
}

// TestStoreSequenceGapFailsLoud: WAL records that pass their CRCs but skip a
// sequence mean a wrong history — Open must refuse, not replay it.
func TestStoreSequenceGapFailsLoud(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	s, err := Create(dir, testGraph(t), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	img := walImage(
		Batch{Seq: 1, Insert: true, Edges: [][2]int32{{0, 3}}},
		Batch{Seq: 3, Insert: true, Edges: [][2]int32{{1, 4}}},
	)
	if err := os.WriteFile(filepath.Join(dir, walFile), img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("sequence gap accepted")
	}
}

func TestNameEncoding(t *testing.T) {
	cases := []string{"dblp", "my graph", "a/b\\c", "..", "%41", "ünïcode", "-_ok9"}
	seen := map[string]bool{}
	for _, name := range cases {
		dir := encodeName(name)
		if seen[dir] {
			t.Fatalf("collision on %q", dir)
		}
		seen[dir] = true
		if filepath.Base(dir) != dir || dir == "." || dir == ".." {
			t.Fatalf("encodeName(%q) = %q is not a plain directory name", name, dir)
		}
		back, err := decodeName(dir)
		if err != nil {
			t.Fatalf("decodeName(%q): %v", dir, err)
		}
		if back != name {
			t.Fatalf("round trip %q → %q → %q", name, dir, back)
		}
	}
	for _, bad := range []string{"a%4", "a%zz", "a.b", "%41"} { // %41 = 'A': non-canonical
		if _, err := decodeName(bad); err == nil {
			t.Errorf("decodeName(%q) accepted", bad)
		}
	}
}

func TestListGraphs(t *testing.T) {
	dataDir := t.TempDir()
	if names, err := ListGraphs(dataDir); err != nil || len(names) != 0 {
		t.Fatalf("empty dir: %v %v", names, err)
	}
	if names, err := ListGraphs(filepath.Join(dataDir, "missing")); err != nil || names != nil {
		t.Fatalf("missing dir: %v %v", names, err)
	}
	g := testGraph(t)
	for _, name := range []string{"zeta", "my graph", "alpha"} {
		s, err := Create(GraphDir(dataDir, name), g, SnapshotMeta{})
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	names, err := ListGraphs(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "my graph", "zeta"}; len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("names = %v, want %v", names, want)
	}
	// A stray file in the data dir is unrecognized durable state: loud.
	if err := os.WriteFile(filepath.Join(dataDir, "stray"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListGraphs(dataDir); err == nil {
		t.Fatal("stray file tolerated")
	}
}

// TestStoreLockExcludesSecondOpener: two live Stores on one directory would
// interleave WAL appends with independently assigned sequences — the flock
// must fail the second opener loudly, and release on Close (as the kernel
// does on process death).
func TestStoreLockExcludesSecondOpener(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	s, err := Create(dir, testGraph(t), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("second opener admitted while the store is live")
	}
	if _, err := Create(dir, testGraph(t), SnapshotMeta{}); err == nil {
		t.Fatal("concurrent Create admitted while the store is live")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, err := Open(dir)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	s2.Close()
}

// TestStorePoisonedAfterFailure: after any durability error the store must
// refuse further appends and checkpoints — continuing past a write of
// unknown extent could orphan acknowledged batches behind a torn record.
func TestStorePoisonedAfterFailure(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	g := testGraph(t)
	boom := errors.New("injected failure")
	armed := false
	s, err := Create(dir, g, SnapshotMeta{}, WithCrashHook(func(p string) error {
		if armed && p == CrashAfterWALAppend {
			return boom
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	armed = true
	if _, err := s.AppendBatches(one(true, [][2]int32{{0, 3}})); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s.Failed() == nil {
		t.Fatal("store not poisoned")
	}
	armed = false // even with the fault gone, the store must stay down
	if _, err := s.AppendBatches(one(true, [][2]int32{{1, 4}})); !errors.Is(err, boom) {
		t.Fatalf("append on poisoned store: err = %v", err)
	}
	if err := s.CheckpointFull(g, SnapshotMeta{Seq: s.Seq()}, nil, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("checkpoint on poisoned store: err = %v", err)
	}
}

// TestStoreShortWALRecovered: a crash inside resetWAL's truncate→header
// window leaves a WAL shorter than its header. That provably post-dates a
// durable snapshot folding every acknowledged batch, so Open must treat it
// as an empty log, not corruption.
func TestStoreShortWALRecovered(t *testing.T) {
	for _, size := range []int{0, 5} {
		t.Run(fmt.Sprintf("%dbytes", size), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "g")
			g := testGraph(t)
			s, err := Create(dir, g, SnapshotMeta{Seq: 7})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			if err := os.WriteFile(filepath.Join(dir, walFile), walFileHeader()[:size], 0o644); err != nil {
				t.Fatal(err)
			}
			s2, rec, err := Open(dir)
			if err != nil {
				t.Fatalf("short wal rejected: %v", err)
			}
			if len(rec.Tail) != 0 || rec.TornBytes != int64(size) {
				t.Fatalf("tail=%d torn=%d, want empty log with %d torn bytes", len(rec.Tail), rec.TornBytes, size)
			}
			sameGraph(t, rec.Graph, g)
			// The log was rebuilt: appends and a clean reopen both work.
			if seq, err := s2.AppendBatches(one(true, [][2]int32{{0, 3}})); err != nil || seq != 8 {
				t.Fatalf("append after repair: seq=%d err=%v", seq, err)
			}
			s2.Close()
			if _, rec3, err := Open(dir); err != nil || len(rec3.Tail) != 1 {
				t.Fatalf("reopen after repair: %v", err)
			}
		})
	}
}

// TestStoreCreateFailureLeavesNothing: a Create that fails partway (here:
// injected abort between the snapshot temp write and its rename) must not
// leave a directory behind for a later recovery scan to resurrect — the
// caller was told the graph does not exist.
func TestStoreCreateFailureLeavesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	boom := errors.New("injected failure")
	_, err := Create(dir, testGraph(t), SnapshotMeta{}, WithCrashHook(func(p string) error {
		if p == CrashAfterSnapshotTmp {
			return boom
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("failed Create left %s behind: %v", dir, err)
	}
}

// one wraps a single batch as the group AppendBatches takes.
func one(insert bool, edges [][2]int32) []BatchSpec {
	return []BatchSpec{{Insert: insert, Edges: edges}}
}
