package ego

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestCrossValidateComputeAll cross-checks ComputeAll against the
// independent Definition-2 BFS oracle on many random graphs.
func TestCrossValidateComputeAll(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		g := gen.Random(seed, 40)
		got := ComputeAll(g)
		want := ComputeAllReference(g)
		for v := range got {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("seed %d: CB(%d) = %v, oracle %v (n=%d m=%d)",
					seed, v, got[v], want[v], g.NumVertices(), g.NumEdges())
			}
		}
	}
}

// TestCrossValidateSingleVertex cross-checks the per-vertex kernel (the
// lazy maintainers' recomputation primitive) against ComputeAll.
func TestCrossValidateSingleVertex(t *testing.T) {
	s := NewScratch(0)
	for seed := uint64(100); seed < 140; seed++ {
		g := gen.Random(seed, 60)
		all := ComputeAll(g)
		for v := int32(0); v < g.NumVertices(); v++ {
			if got := EgoBetweenness(g, v, s); math.Abs(got-all[v]) > 1e-9 {
				t.Fatalf("seed %d: vertex %d: per-vertex %v != all %v", seed, v, got, all[v])
			}
		}
	}
}

// TestThetaInsensitivity: theta trades work, never answers. All theta values
// must give the identical list.
func TestThetaInsensitivity(t *testing.T) {
	for seed := uint64(300); seed < 315; seed++ {
		g := gen.Random(seed, 60)
		want, _ := OptBSearch(g, 8, 1)
		for _, theta := range []float64{1.05, 1.10, 1.20, 1.30, 2.0, 10.0} {
			got, _ := OptBSearch(g, 8, theta)
			assertSameResults(t, fmt.Sprintf("seed %d θ=%v", seed, theta), want, got)
		}
	}
}

// TestQuickCBBounds is a testing/quick property: for arbitrary edge sets,
// 0 ≤ CB(v) ≤ d(v)(d(v)−1)/2 (Lemma 2), and CB(v) equals the bound exactly
// when no two neighbors of v are adjacent or co-connected.
func TestQuickCBBounds(t *testing.T) {
	f := func(rawEdges [][2]uint8) bool {
		edges := make([][2]int32, 0, len(rawEdges))
		for _, e := range rawEdges {
			edges = append(edges, [2]int32{int32(e[0] % 32), int32(e[1] % 32)})
		}
		g, err := graph.FromEdges(32, edges)
		if err != nil {
			return false
		}
		cb := ComputeAll(g)
		for v := int32(0); v < g.NumVertices(); v++ {
			if cb[v] < -1e-12 || cb[v] > StaticUB(g.Degree(v))+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStarAndClique pins the two extreme topologies: a star center has
// CB = d(d−1)/2 (every leaf pair routed through the center), every clique
// vertex has CB = 0 (no pair needs an intermediary).
func TestQuickStarAndClique(t *testing.T) {
	f := func(sz uint8) bool {
		d := int32(sz%30) + 2
		// Star with d leaves: center is 0.
		star := make([][2]int32, d)
		for i := int32(0); i < d; i++ {
			star[i] = [2]int32{0, i + 1}
		}
		sg := graph.MustFromEdges(d+1, star)
		cb := ComputeAll(sg)
		if math.Abs(cb[0]-StaticUB(d)) > 1e-9 {
			return false
		}
		for v := int32(1); v <= d; v++ {
			if cb[v] != 0 {
				return false
			}
		}
		// Clique on d+1 vertices: everybody 0.
		var kedges [][2]int32
		for u := int32(0); u <= d; u++ {
			for v := u + 1; v <= d; v++ {
				kedges = append(kedges, [2]int32{u, v})
			}
		}
		kg := graph.MustFromEdges(d+1, kedges)
		for _, x := range ComputeAll(kg) {
			if x != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestComputeAllOnGenerators smoke-tests every generator family and
// cross-validates a sample of vertices against the per-vertex kernel.
func TestComputeAllOnGenerators(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":  gen.ErdosRenyi(300, 900, 1),
		"ba":  gen.BarabasiAlbert(300, 3, 2),
		"cl":  gen.ChungLu(300, 2.3, 6, 60, 3),
		"ws":  gen.WattsStrogatz(300, 6, 0.1, 4),
		"aff": gen.Affiliation(300, 120, 5, 1, 5),
	}
	s := NewScratch(300)
	for name, g := range graphs {
		cb := ComputeAll(g)
		for v := int32(0); v < g.NumVertices(); v += 17 {
			if got := EgoBetweenness(g, v, s); math.Abs(got-cb[v]) > 1e-9 {
				t.Errorf("%s: vertex %d: %v != %v", name, v, got, cb[v])
			}
		}
	}
}

// TestEmptyAndTinyGraphs covers degenerate inputs.
func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.MustFromEdges(0, nil)
	if got := ComputeAll(empty); len(got) != 0 {
		t.Errorf("empty graph: got %d scores", len(got))
	}
	single := graph.MustFromEdges(1, nil)
	if got := ComputeAll(single); len(got) != 1 || got[0] != 0 {
		t.Errorf("single vertex: got %v", got)
	}
	pair := graph.MustFromEdges(2, [][2]int32{{0, 1}})
	for _, cb := range ComputeAll(pair) {
		if cb != 0 {
			t.Errorf("K2: nonzero CB %v", cb)
		}
	}
	res, st := BaseBSearch(empty, 3)
	if len(res) != 0 || st.Computed != 0 {
		t.Errorf("BaseBSearch on empty graph: %v %+v", res, st)
	}
	res, _ = OptBSearch(single, 5, 1.05)
	if len(res) != 1 || res[0].CB != 0 {
		t.Errorf("OptBSearch on single vertex: %v", res)
	}
}

// TestOverlapMetric checks the Fig. 11 overlap helper.
func TestOverlapMetric(t *testing.T) {
	a := []Result{{V: 1}, {V: 2}, {V: 3}, {V: 4}}
	b := []Result{{V: 3}, {V: 4}, {V: 5}, {V: 6}}
	if got := Overlap(a, b); got != 0.5 {
		t.Errorf("overlap = %v, want 0.5", got)
	}
	if got := Overlap(a, nil); got != 0 {
		t.Errorf("overlap with empty = %v, want 0", got)
	}
	if got := Overlap(a, a); got != 1 {
		t.Errorf("self overlap = %v, want 1", got)
	}
}
