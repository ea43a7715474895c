package graph

import "testing"

// Corrupted structures must be rejected by Validate — these tests exercise
// every failure branch by assembling invalid CSR states directly.
func TestValidateRejectsCorruption(t *testing.T) {
	valid := func() *Graph {
		return mustG(t, 3, [][2]int32{{0, 1}, {1, 2}})
	}

	t.Run("offsets length", func(t *testing.T) {
		g := valid()
		g.offsets = g.offsets[:len(g.offsets)-1]
		if g.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("out of range neighbor", func(t *testing.T) {
		g := valid()
		g.adj[0] = 99
		if g.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		g := valid()
		// vertex 0's only neighbor becomes itself.
		g.adj[0] = 0
		if g.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("unsorted neighbors", func(t *testing.T) {
		g := mustG(t, 4, [][2]int32{{1, 0}, {1, 2}, {1, 3}})
		nbrs := g.Neighbors(1)
		nbrs[0], nbrs[1] = nbrs[1], nbrs[0]
		if g.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("asymmetric", func(t *testing.T) {
		g := mustG(t, 4, [][2]int32{{0, 1}, {2, 3}})
		// Rewrite vertex 0's neighbor from 1 to 2 without updating 2.
		g.adj[g.offsets[0]] = 2
		if g.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("edge count mismatch", func(t *testing.T) {
		g := valid()
		g.m = 99
		if g.Validate() == nil {
			t.Fatal("want error")
		}
	})
	t.Run("valid passes", func(t *testing.T) {
		if err := valid().Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFromAdjacencyAsymmetricInput: FromAdjacency must symmetrize one-sided
// adjacency lists.
func TestFromAdjacencyAsymmetricInput(t *testing.T) {
	g, err := FromAdjacency([][]int32{{1, 2}, {}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !containsSorted(g.Neighbors(1), 0) || !containsSorted(g.Neighbors(2), 0) {
		t.Fatal("one-sided adjacency not symmetrized")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRankIsInverseOfOrder on a larger random-ish instance.
func TestRankIsInverseOfOrder(t *testing.T) {
	g := mustG(t, 200, genRing(200))
	order := OrderOf(g)
	rank := RankOf(g)
	if len(order) != 200 || len(rank) != 200 {
		t.Fatal("length mismatch")
	}
	for i, v := range order {
		if rank[v] != int32(i) {
			t.Fatalf("rank[order[%d]] = %d", i, rank[v])
		}
	}
	// The order must be a permutation.
	seen := make([]bool, 200)
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d repeated", v)
		}
		seen[v] = true
	}
}
