package graph

import (
	"math/rand/v2"
	"testing"
)

// TestFreezeMatchesFromAdjacency checks that the direct CSR export — serial
// and parallel — produces a graph identical to the general (sort + dedup)
// construction path, across random mutation histories.
func TestFreezeMatchesFromAdjacency(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20; trial++ {
		n := int32(2 + rng.IntN(2000))
		d := emptyDyn(n)
		for i := 0; i < 4*int(n); i++ {
			u, v := rng.Int32N(n), rng.Int32N(n)
			if u == v {
				continue
			}
			if d.HasEdge(u, v) {
				_ = d.DeleteEdge(u, v)
			} else {
				_ = d.InsertEdge(u, v)
			}
		}
		want, err := FromAdjacency(d.adj)
		if err != nil {
			t.Fatalf("trial %d: FromAdjacency: %v", trial, err)
		}
		for _, workers := range []int{1, 4} {
			got := d.Freeze(workers)
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d (workers=%d): invalid CSR: %v", trial, workers, err)
			}
			if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
				t.Fatalf("trial %d (workers=%d): shape mismatch: got n=%d m=%d, want n=%d m=%d",
					trial, workers, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
			}
			for v := int32(0); v < n; v++ {
				gn, wn := got.Neighbors(v), want.Neighbors(v)
				if len(gn) != len(wn) {
					t.Fatalf("trial %d (workers=%d): vertex %d degree %d != %d", trial, workers, v, len(gn), len(wn))
				}
				for i := range gn {
					if gn[i] != wn[i] {
						t.Fatalf("trial %d (workers=%d): vertex %d neighbor %d: %d != %d",
							trial, workers, v, i, gn[i], wn[i])
					}
				}
			}
		}
	}
}
