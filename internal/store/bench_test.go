package store

import (
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Micro-benchmarks for the durability hot paths. The snapshot codec runs
// inside the serving layer's write lock at every checkpoint, and the WAL
// append runs on every update batch, so their costs bound the write-path
// latency the persistence layer adds (benchmark/README.md has the
// graph-scale numbers: store.checkpoint_ms, store.wal_append_us).

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return gen.BarabasiAlbert(5000, 4, 0xE60B)
}

func BenchmarkEncodeSnapshot(b *testing.B) {
	g := benchGraph(b)
	enc := EncodeSnapshot(g, SnapshotMeta{Seq: 1})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeSnapshot(g, SnapshotMeta{Seq: 1})
	}
}

func BenchmarkDecodeSnapshot(b *testing.B) {
	enc := EncodeSnapshot(benchGraph(b), SnapshotMeta{Seq: 1})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeSnapshot(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAppend(b *testing.B, sync bool) {
	s, err := Create(filepath.Join(b.TempDir(), "g"), benchGraph(b), SnapshotMeta{}, WithSync(sync))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	edges := [][2]int32{{1, 4001}, {2, 4002}, {3, 4003}, {4, 4004}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AppendBatches(one(true, edges)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendSync(b *testing.B)   { benchAppend(b, true) }
func BenchmarkWALAppendNoSync(b *testing.B) { benchAppend(b, false) }

func BenchmarkStoreOpenReplay(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "g")
	s, err := Create(dir, benchGraph(b), SnapshotMeta{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := s.AppendBatches(one(true, [][2]int32{{int32(i), 4100 + int32(i)}})); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ { // Open repairs nothing here, so it is repeatable
		s2, rec, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Tail) != 200 {
			b.Fatalf("tail = %d", len(rec.Tail))
		}
		s2.Close()
	}
}
