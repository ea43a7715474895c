package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

// dirMappings counts this process's memory mappings of files under dir, a
// replaced or deleted file's mapping ("… (deleted)") included.
func dirMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), " "+dir+string(filepath.Separator))
}

// TestRecoverReleasesSnapshotMapping: a Store owns the mapping of the
// snapshot it opened. Twenty Open → CheckpointFull → Close cycles on one
// directory — each checkpoint replaces the mapped file — leave at most one
// mapping of it at any point and none after Close, and an Open that fails
// to decode its snapshot leaves none either.
func TestRecoverReleasesSnapshotMapping(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(2000, 4, 1)
	s, err := Create(dir, g, SnapshotMeta{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := range 20 {
		s, rec, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CheckpointFull(rec.Graph, SnapshotMeta{Seq: s.Seq()}, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if n := dirMappings(t, dir); n > 1 {
			t.Fatalf("cycle %d: %d mappings of the data directory while open, want ≤ 1", i, n)
		}
		s.Close()
		if n := dirMappings(t, dir); n != 0 {
			t.Fatalf("cycle %d: %d mappings of the data directory after Close, want 0", i, n)
		}
	}

	path := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10 // inside the CSR: the checksum fails
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatal("Open decoded a corrupt snapshot")
	}
	if n := dirMappings(t, dir); n != 0 {
		t.Fatalf("%d mappings of the data directory after a failed Open, want 0", n)
	}
}
