package server

import (
	"testing"

	"repro/internal/gen"
)

// BenchmarkLazyVertexQuery measures the ModeLazy per-vertex read path —
// a from-scratch EgoBetweenness recomputation on the lock-free snapshot.
// The pooled scratch (egoScratch) is the point: steady-state queries must
// not allocate, where the old code built a fresh register + evidence map
// per query on the hot read path.
func BenchmarkLazyVertexQuery(b *testing.B) {
	reg := NewRegistry()
	g := gen.BarabasiAlbert(2000, 4, 1)
	if _, err := reg.Add("g", g, ModeLazy, 10); err != nil {
		b.Fatal(err)
	}
	defer reg.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.EgoBetweenness("g", int32(i%2000)); err != nil {
			b.Fatal(err)
		}
	}
}
