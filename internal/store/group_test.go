package store

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestAppendBatchesGroup: a group append produces per-batch records with
// consecutive sequences, indistinguishable on replay from individual
// appends, and mixes with single appends.
func TestAppendBatchesGroup(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	s, err := Create(dir, testGraph(t), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := s.AppendBatches(one(true, [][2]int32{{0, 3}})); err != nil || seq != 1 {
		t.Fatalf("single append: seq=%d err=%v", seq, err)
	}
	group := []BatchSpec{
		{Insert: true, Edges: [][2]int32{{1, 4}, {2, 5}}},
		{Insert: false, Edges: [][2]int32{{0, 1}}},
		{Insert: true, Edges: [][2]int32{{3, 5}}},
	}
	first, err := s.AppendBatches(group)
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 || s.Seq() != 4 {
		t.Fatalf("first=%d seq=%d, want 2/4", first, s.Seq())
	}
	if seq, err := s.AppendBatches(one(false, [][2]int32{{4, 5}})); err != nil || seq != 5 {
		t.Fatalf("post-group append: seq=%d err=%v", seq, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.TornBytes != 0 {
		t.Fatalf("torn bytes = %d, want 0", rec.TornBytes)
	}
	if len(rec.Tail) != 5 {
		t.Fatalf("tail has %d batches, want 5", len(rec.Tail))
	}
	for i, b := range rec.Tail {
		if b.Seq != uint64(i+1) {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, b.Seq, i+1)
		}
	}
	for i, sp := range group {
		got := rec.Tail[i+1]
		if got.Insert != sp.Insert || len(got.Edges) != len(sp.Edges) {
			t.Fatalf("tail[%d] = %+v, want spec %+v", i+1, got, sp)
		}
		for j, e := range sp.Edges {
			if got.Edges[j] != e {
				t.Fatalf("tail[%d].Edges[%d] = %v, want %v", i+1, j, got.Edges[j], e)
			}
		}
	}
}

// TestAppendBatchesEmptyGroup: a zero-batch group is a caller bug, rejected
// without touching the WAL or poisoning the store.
func TestAppendBatchesEmptyGroup(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "g")
	s, err := Create(dir, testGraph(t), SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendBatches(nil); err == nil {
		t.Fatal("empty group accepted")
	}
	if s.Failed() != nil {
		t.Fatalf("empty group poisoned the store: %v", s.Failed())
	}
	if seq, err := s.AppendBatches(one(true, [][2]int32{{0, 3}})); err != nil || seq != 1 {
		t.Fatalf("append after empty group: seq=%d err=%v", seq, err)
	}
}

// TestAppendBatchesCrashPoints: an injected crash at each point of the group
// append poisons the store with the whole group un-acknowledged (Seq
// unchanged), and recovery sees exactly the records whose write completed —
// none for a crash before the write, all of them (in this process-kill
// model, where written-but-unsynced bytes survive) afterwards.
func TestAppendBatchesCrashPoints(t *testing.T) {
	cases := []struct {
		point  string
		onDisk int // group batches recovery replays
	}{
		{CrashBeforeWALAppend, 0},
		{CrashAfterGroupWrite, 2},
		{CrashAfterWALAppend, 2},
	}
	errBoom := errors.New("boom")
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "g")
			armed := false
			s, err := Create(dir, testGraph(t), SnapshotMeta{}, WithCrashHook(func(p string) error {
				if armed && p == tc.point {
					return errBoom
				}
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendBatches(one(true, [][2]int32{{0, 3}})); err != nil {
				t.Fatal(err)
			}
			armed = true
			group := []BatchSpec{
				{Insert: true, Edges: [][2]int32{{1, 4}}},
				{Insert: true, Edges: [][2]int32{{2, 5}}},
			}
			if _, err := s.AppendBatches(group); !errors.Is(err, errBoom) {
				t.Fatalf("crash not injected: %v", err)
			}
			if _, err := s.AppendBatches(group); err == nil || s.Failed() == nil {
				t.Fatal("store not poisoned after group-append crash")
			}
			s.Close()

			s2, rec, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if len(rec.Tail) != 1+tc.onDisk {
				t.Fatalf("recovered %d batches, want %d", len(rec.Tail), 1+tc.onDisk)
			}
			if s2.Seq() != uint64(1+tc.onDisk) {
				t.Fatalf("recovered seq = %d, want %d", s2.Seq(), 1+tc.onDisk)
			}
		})
	}
}
