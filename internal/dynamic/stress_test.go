package dynamic

import (
	"math/rand/v2"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
)

// TestStressMixedOpsWithGrowth drives a long script of edge inserts and
// deletes — toggling random edges, wiring up new vertices (vertex-set
// growth) and stripping a vertex bare — on both maintainers,
// cross-checking against recomputation at checkpoints.
func TestStressMixedOpsWithGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress test")
	}
	rng := rand.New(rand.NewPCG(2718, 281))
	g := gen.ErdosRenyi(40, 120, 7)
	const k = 6
	m := NewMaintainer(g)
	lt := NewLazyTopK(g, k)

	for step := 0; step < 250; step++ {
		n := m.Graph().NumVertices()
		switch rng.IntN(10) {
		case 0: // wire a new vertex to up to 4 neighbors, growing the vertex set
			seen := map[int32]bool{}
			for len(seen) < 1+rng.IntN(4) {
				u := rng.Int32N(n)
				if seen[u] {
					continue
				}
				seen[u] = true
				if err := m.InsertEdge(n, u); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := lt.InsertEdge(n, u); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		case 1: // strip a random vertex bare
			v := rng.Int32N(n)
			for _, u := range append([]int32(nil), m.Graph().Neighbors(v)...) {
				if err := m.DeleteEdge(v, u); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := lt.DeleteEdge(v, u); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		default: // toggle a random edge
			u, v := rng.Int32N(n), rng.Int32N(n)
			if u == v {
				continue
			}
			if m.Graph().HasEdge(u, v) {
				if err := m.DeleteEdge(u, v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := lt.DeleteEdge(u, v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			} else {
				if err := m.InsertEdge(u, v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := lt.InsertEdge(u, v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if step%25 == 0 {
			assertMatchesScratch(t, m, "stress checkpoint")
			compareTopK(t, m, lt, k, "stress checkpoint")
		}
	}
	assertMatchesScratch(t, m, "stress final")
	compareTopK(t, m, lt, k, "stress final")
}

// TestMaintainerTopKTracksSearch: after arbitrary updates, the maintainer's
// top-k must equal a fresh OptBSearch on the materialized graph.
func TestMaintainerTopKTracksSearch(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 77)
	m := NewMaintainer(g)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 40; i++ {
		u, v := rng.Int32N(500), rng.Int32N(500)
		if u == v {
			continue
		}
		if m.Graph().HasEdge(u, v) {
			_ = m.DeleteEdge(u, v)
		} else {
			_ = m.InsertEdge(u, v)
		}
	}
	snap := m.Graph().Freeze(1)
	want, _ := ego.OptBSearch(snap, 10, 1.05)
	got := m.TopK(10)
	for i := range want {
		if want[i].CB != got[i].CB {
			t.Fatalf("rank %d: maintainer %v, search %v", i, got[i].CB, want[i].CB)
		}
	}
}

// TestLazyResultsIdempotent: calling Results repeatedly without updates must
// return identical answers and do no extra recomputation after the first.
func TestLazyResultsIdempotent(t *testing.T) {
	lt := NewLazyTopK(gen.ErdosRenyi(100, 300, 11), 5)
	if err := lt.InsertEdge(0, 99); err != nil {
		t.Fatal(err)
	}
	first := lt.Results()
	work := lt.Stats.Recomputed
	for i := 0; i < 3; i++ {
		again := lt.Results()
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("Results changed on repeat call: %v vs %v", again[j], first[j])
			}
		}
	}
	if lt.Stats.Recomputed != work {
		t.Errorf("idle Results recomputed %d extra vertices", lt.Stats.Recomputed-work)
	}
}

func compareTopK(t *testing.T, m *Maintainer, lt *LazyTopK, k int, stage string) {
	t.Helper()
	want := m.TopK(k)
	got := lt.Results()
	if len(want) != len(got) {
		t.Fatalf("%s: sizes %d vs %d", stage, len(got), len(want))
	}
	for i := range want {
		if want[i].CB != got[i].CB {
			t.Fatalf("%s: rank %d: lazy %v local %v", stage, i, got[i].CB, want[i].CB)
		}
	}
}
