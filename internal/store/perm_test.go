package store

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

func permTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPermRoundTrip pins the recovery contract of the relabel section: a
// permutation checkpointed via CheckpointFull comes back verbatim from
// Open, with and without a maintainer-state section in front of it.
func TestPermRoundTrip(t *testing.T) {
	g := permTestGraph(t)
	perm := []int32{1, 3, 0, 4, 2}
	for name, st := range map[string]*MaintainerState{
		"perm only":       nil,
		"state then perm": {Local: dynamic.NewMaintainer(g).ExportState()},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Create(dir, g, SnapshotMeta{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CheckpointFull(g, SnapshotMeta{Seq: s.Seq()}, st, perm, nil); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, rec, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if rec.PermErr != nil {
				t.Fatalf("PermErr = %v", rec.PermErr)
			}
			if !slices.Equal(rec.Perm, perm) {
				t.Fatalf("recovered perm %v, want %v", rec.Perm, perm)
			}
			if st != nil && (rec.State == nil || rec.StateErr != nil) {
				t.Fatalf("state section lost next to perm: state=%v err=%v", rec.State, rec.StateErr)
			}
			if st == nil && (rec.State != nil || rec.StateErr != nil) {
				t.Fatalf("phantom state: state=%v err=%v", rec.State, rec.StateErr)
			}
		})
	}
}

// TestPermCorruption checks the independence contract: damage to the relabel
// section surfaces as PermErr while the graph (and any state section before
// it) still loads — and vice versa, a perm-only v2 image never confuses the
// state decoder.
func TestPermCorruption(t *testing.T) {
	g := permTestGraph(t)
	perm := []int32{1, 3, 0, 4, 2}
	st := &MaintainerState{Local: dynamic.NewMaintainer(g).ExportState()}
	img := EncodeSnapshotFull(g, SnapshotMeta{}, st, perm, nil)

	cases := map[string]struct {
		mutate func([]byte)
		want   string
	}{
		"flipped perm payload": {
			mutate: func(b []byte) { b[len(b)-10] ^= 0x04 },
			want:   "checksum",
		},
		"bad perm magic": {
			mutate: func(b []byte) { b[len(b)-(stateHeaderLen+4*len(perm)+4)] = 'X' },
			want:   "magic",
		},
		"perm version skew": {
			mutate: func(b []byte) { b[len(b)-(stateHeaderLen+4*len(perm)+4)+4] = 9 },
			want:   "version",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			data := append([]byte(nil), img...)
			tc.mutate(data)
			if _, _, err := DecodeSnapshot(data); err != nil {
				t.Fatalf("graph part should be unaffected: %v", err)
			}
			if _, err := DecodeSnapshotState(data); err != nil {
				t.Fatalf("state section should be unaffected: %v", err)
			}
			_, err := DecodeSnapshotPerm(data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("perm decode error = %v, want mention of %q", err, tc.want)
			}
		})
	}

	t.Run("truncated perm section", func(t *testing.T) {
		data := append([]byte(nil), img[:len(img)-6]...)
		if _, _, err := DecodeSnapshot(data); err != nil {
			t.Fatalf("graph part should be unaffected: %v", err)
		}
		if _, err := DecodeSnapshotState(data); err != nil {
			t.Fatalf("state section should be unaffected: %v", err)
		}
		if _, err := DecodeSnapshotPerm(data); err == nil {
			t.Fatal("truncated perm section accepted")
		}
	})

	t.Run("perm-only image has no state", func(t *testing.T) {
		data := EncodeSnapshotFull(g, SnapshotMeta{}, nil, perm, nil)
		state, err := DecodeSnapshotState(data)
		if state != nil || err != nil {
			t.Fatalf("state = %v, err = %v; want nil, nil", state, err)
		}
		got, err := DecodeSnapshotPerm(data)
		if err != nil || !slices.Equal(got, perm) {
			t.Fatalf("perm = %v (err %v), want %v", got, err, perm)
		}
	})

	t.Run("corrupt perm never blocks Open", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Create(dir, g, SnapshotMeta{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckpointFull(g, SnapshotMeta{}, st, perm, nil); err != nil {
			t.Fatal(err)
		}
		s.Close()
		path := filepath.Join(dir, snapshotFile)
		data, err := readFileShared(path)
		if err != nil {
			t.Fatal(err)
		}
		data = append([]byte(nil), data...)
		data[len(data)-10] ^= 0x04
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("Open failed on corrupt perm: %v", err)
		}
		defer s2.Close()
		if rec.PermErr == nil || rec.Perm != nil {
			t.Fatalf("perm = %v, err = %v; want nil + error", rec.Perm, rec.PermErr)
		}
		if rec.State == nil || rec.StateErr != nil {
			t.Fatalf("state lost: %v (err %v)", rec.State, rec.StateErr)
		}
	})
}
