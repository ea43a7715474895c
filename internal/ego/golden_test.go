package ego

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/paperex"
)

const eps = 1e-9

func almost(a, b float64) bool { return math.Abs(a-b) <= eps }

// TestPaperExampleComputeAll checks every CB value of the Fig. 1 running
// example against ComputeAll (Examples 1-3 of the paper).
func TestPaperExampleComputeAll(t *testing.T) {
	g := paperex.New()
	cb := ComputeAll(g)
	for v, want := range paperex.CB {
		if !almost(cb[v], want) {
			t.Errorf("CB(%s) = %v, want %v", paperex.Names[v], cb[v], want)
		}
	}
}

// TestPaperExampleSingleVertex checks the per-vertex kernel on the same
// ground truth, on both graph representations.
func TestPaperExampleSingleVertex(t *testing.T) {
	g := paperex.New()
	dg := graph.DynFromGraph(g)
	s := NewScratch(g.NumVertices())
	for v, want := range paperex.CB {
		if got := EgoBetweenness(g, v, s); !almost(got, want) {
			t.Errorf("static: CB(%s) = %v, want %v", paperex.Names[v], got, want)
		}
		if got := EgoBetweenness(dg, v, nil); !almost(got, want) {
			t.Errorf("dynamic: CB(%s) = %v, want %v", paperex.Names[v], got, want)
		}
	}
}

// TestPaperExampleReferenceBFS validates the independent Definition-2 oracle
// itself against the paper's values.
func TestPaperExampleReferenceBFS(t *testing.T) {
	g := paperex.New()
	for v, want := range paperex.CB {
		if got := ReferenceBFS(g, v); !almost(got, want) {
			t.Errorf("CB(%s) = %v, want %v", paperex.Names[v], got, want)
		}
	}
}

// TestPaperExampleExampleOneDetail re-derives the b_uv(d) breakdown of
// Example 1: g_ci = 3 shortest paths in GE(d), b_ci(d) = 1/3.
func TestPaperExampleExampleOneDetail(t *testing.T) {
	g := paperex.New()
	// Connectors of the non-adjacent pair (c, i) inside N(d): g and h.
	comm := nbr.IntersectInto(nil, g.Neighbors(paperex.C), g.Neighbors(paperex.I))
	inND := 0
	for _, w := range comm {
		if slices.Contains(g.Neighbors(w), paperex.D) {
			inND++
		}
	}
	if inND != 2 {
		t.Fatalf("connectors of (c,i) in N(d) = %d, want 2 (g and h)", inND)
	}
	if slices.Contains(g.Neighbors(paperex.C), paperex.I) {
		t.Fatal("(c,i) must not be an edge")
	}
}

// TestBaseBSearchPaperExample reproduces Example 3: the top-5 set, and the
// exact number of ego-betweenness computations (10 of 16 vertices) before
// the static bound terminates the scan.
func TestBaseBSearchPaperExample(t *testing.T) {
	g := paperex.New()
	res, st := BaseBSearch(g, 5)
	assertTop5(t, res)
	if st.Computed != paperex.BaseSearchComputed {
		t.Errorf("BaseBSearch computed %d vertices, want %d", st.Computed, paperex.BaseSearchComputed)
	}
	if st.Pruned != int64(int(paperex.NumVertices)-paperex.BaseSearchComputed) {
		t.Errorf("BaseBSearch pruned %d vertices, want %d", st.Pruned, int(paperex.NumVertices)-paperex.BaseSearchComputed)
	}
}

// TestOptBSearchPaperExample reproduces Example 4's outcome: the same top-5,
// with no more exact computations than BaseBSearch (the paper's run does 6
// versus 10; our identified-information sharing is a superset of the
// paper's, so the count may be even lower but never higher).
func TestOptBSearchPaperExample(t *testing.T) {
	g := paperex.New()
	for _, theta := range []float64{1.0, 1.05, 1.30} {
		res, st := OptBSearch(g, 5, theta)
		assertTop5(t, res)
		if st.Computed > paperex.BaseSearchComputed {
			t.Errorf("theta=%v: OptBSearch computed %d vertices, want ≤ %d",
				theta, st.Computed, paperex.BaseSearchComputed)
		}
	}
}

func assertTop5(t *testing.T, res []Result) {
	t.Helper()
	if len(res) != 5 {
		t.Fatalf("got %d results, want 5", len(res))
	}
	for i, want := range paperex.Top5 {
		if res[i].V != want {
			t.Errorf("rank %d = %s, want %s", i+1, paperex.Names[res[i].V], paperex.Names[want])
		}
		if !almost(res[i].CB, paperex.CB[want]) {
			t.Errorf("rank %d score = %v, want %v", i+1, res[i].CB, paperex.CB[want])
		}
	}
}

// TestStaticUB spot checks Lemma 2 values from Fig. 2.
func TestStaticUB(t *testing.T) {
	g := paperex.New()
	want := map[int32]float64{
		paperex.C: 21, paperex.I: 15, paperex.F: 15, paperex.D: 15,
		paperex.X: 10, paperex.E: 10, paperex.H: 6, paperex.G: 6,
		paperex.B: 6, paperex.A: 6, paperex.J: 3, paperex.K: 1,
	}
	for v, ub := range want {
		if got := StaticUB(g.Degree(v)); got != ub {
			t.Errorf("ub(%s) = %v, want %v", paperex.Names[v], got, ub)
		}
	}
}

// TestProcessingOrderMatchesFig2 checks that graph.OrderOf visits the ten
// computed vertices of Fig. 2 in the paper's exact sequence.
func TestProcessingOrderMatchesFig2(t *testing.T) {
	g := paperex.New()
	want := []int32{paperex.C, paperex.I, paperex.F, paperex.D, paperex.X,
		paperex.E, paperex.H, paperex.G, paperex.B, paperex.A}
	order := graph.OrderOf(g)
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order[%d] = %s, want %s", i, paperex.Names[order[i]], paperex.Names[v])
		}
	}
}
