package graph

import (
	"math/rand/v2"
	"testing"
)

// emptyDyn returns a dynamic graph with n isolated vertices.
func emptyDyn(n int32) *DynGraph { return &DynGraph{adj: make([][]int32, n)} }

func TestDynInsertDelete(t *testing.T) {
	d := emptyDyn(4)
	if err := d.InsertEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertEdge(0, 1); err == nil {
		t.Fatal("duplicate insert must fail")
	}
	if err := d.InsertEdge(2, 2); err == nil {
		t.Fatal("self-loop insert must fail")
	}
	if !d.HasEdge(1, 0) {
		t.Fatal("edge missing after insert")
	}
	if d.NumEdges() != 1 {
		t.Fatalf("m=%d, want 1", d.NumEdges())
	}
	if err := d.DeleteEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteEdge(0, 1); err == nil {
		t.Fatal("double delete must fail")
	}
	if d.HasEdge(0, 1) || d.NumEdges() != 0 {
		t.Fatal("edge survived delete")
	}
}

func TestDynGrowsVertices(t *testing.T) {
	d := emptyDyn(2)
	if err := d.InsertEdge(1, 7); err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 8 {
		t.Fatalf("n=%d, want 8", d.NumVertices())
	}
	if d.Degree(7) != 1 || d.Degree(5) != 0 {
		t.Fatal("degrees wrong after growth")
	}
}

func TestDynRoundTrip(t *testing.T) {
	g := mustG(t, 6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	d := DynFromGraph(g)
	back := d.Freeze(1)
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() || back.NumVertices() != g.NumVertices() {
		t.Fatal("round trip changed shape")
	}
	g.EachEdge(func(u, v int32) bool {
		if !containsSorted(back.Neighbors(u), v) {
			t.Errorf("edge (%d,%d) lost", u, v)
		}
		return true
	})
}

// TestDynRandomizedAgainstMap drives a random edit script and checks every
// query against a map-of-sets oracle.
func TestDynRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	const n = 20
	d := emptyDyn(n)
	oracle := map[[2]int32]bool{}
	key := func(u, v int32) [2]int32 {
		if u > v {
			u, v = v, u
		}
		return [2]int32{u, v}
	}
	for step := 0; step < 3000; step++ {
		u := rng.Int32N(n)
		v := rng.Int32N(n)
		if u == v {
			continue
		}
		k := key(u, v)
		if oracle[k] {
			if rng.Float64() < 0.5 {
				if err := d.DeleteEdge(u, v); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				delete(oracle, k)
			}
		} else {
			if err := d.InsertEdge(u, v); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			oracle[k] = true
		}
		// Spot check queries.
		a, b := rng.Int32N(n), rng.Int32N(n)
		if a != b {
			if d.HasEdge(a, b) != oracle[key(a, b)] {
				t.Fatalf("step %d: HasEdge(%d,%d) disagrees with oracle", step, a, b)
			}
		}
		if int(d.NumEdges()) != len(oracle) {
			t.Fatalf("step %d: m=%d, oracle %d", step, d.NumEdges(), len(oracle))
		}
	}
	// Neighbor lists must remain sorted.
	for v := int32(0); v < n; v++ {
		nbrs := d.Neighbors(v)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("neighbors of %d unsorted: %v", v, nbrs)
			}
		}
	}
}
