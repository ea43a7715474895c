package ego

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/paperex"
)

// TestSearchStatsConsistency: computed + pruned never exceeds n for Base;
// Opt's computed is bounded by n and its refresh count by computed +
// reinsertions + pruned + 1 per heap pop.
func TestSearchStatsConsistency(t *testing.T) {
	for seed := uint64(400); seed < 420; seed++ {
		g := gen.Random(seed, 60)
		n := int64(g.NumVertices())
		_, bst := BaseBSearch(g, 7)
		if bst.Computed+bst.Pruned > n {
			t.Errorf("seed %d: base computed %d + pruned %d > n=%d",
				seed, bst.Computed, bst.Pruned, n)
		}
		_, ost := OptBSearch(g, 7, 1.05)
		if ost.Computed > n {
			t.Errorf("seed %d: opt computed %d > n=%d", seed, ost.Computed, n)
		}
		// Every pop refreshes exactly one bound, and every refresh ends in
		// a computation, a reinsertion, or a prune — except that early
		// termination bulk-prunes the never-popped heap remainder, so
		// Pruned can exceed the individually popped count.
		if ost.BoundRefreshes < ost.Computed ||
			ost.BoundRefreshes > ost.Computed+ost.Reinserted+ost.Pruned+1 {
			t.Errorf("seed %d: refreshes %d outside [%d, %d]",
				seed, ost.BoundRefreshes, ost.Computed,
				ost.Computed+ost.Reinserted+ost.Pruned+1)
		}
	}
}

// TestSearchDeterminism: repeated runs must return identical vertex lists
// (not just scores) — the tie-breaking is fully deterministic.
func TestSearchDeterminism(t *testing.T) {
	g := gen.ChungLu(500, 2.3, 6, 60, 31)
	first, _ := OptBSearch(g, 20, 1.05)
	for run := 0; run < 3; run++ {
		again, _ := OptBSearch(g, 20, 1.05)
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("run %d: rank %d differs: %v vs %v", run, i, again[i], first[i])
			}
		}
	}
	b1, _ := BaseBSearch(g, 20)
	b2, _ := BaseBSearch(g, 20)
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("base rank %d differs", i)
		}
	}
}

// TestSearchSmallK: k=1 returns the global maximum.
func TestSearchSmallK(t *testing.T) {
	for seed := uint64(500); seed < 520; seed++ {
		g := gen.Random(seed, 50)
		all := ComputeAll(g)
		maxCB := 0.0
		for _, x := range all {
			if x > maxCB {
				maxCB = x
			}
		}
		for name, run := range map[string]func() []Result{
			"base": func() []Result { r, _ := BaseBSearch(g, 1); return r },
			"opt":  func() []Result { r, _ := OptBSearch(g, 1, 1.05); return r },
		} {
			res := run()
			if len(res) != 1 || math.Abs(res[0].CB-maxCB) > 1e-9 {
				t.Errorf("seed %d %s: top-1 = %v, want score %v", seed, name, res, maxCB)
			}
		}
	}
}

// TestSearchNonPositiveK: k ≤ 0 selects nothing — every exact top-k path
// returns an empty list, and neither search computes a vertex.
func TestSearchNonPositiveK(t *testing.T) {
	g := gen.ChungLu(300, 2.2, 5.3, 40, 1)
	cb := ComputeAll(g)
	for _, k := range []int{0, -1, math.MinInt} {
		for name, run := range map[string]func() ([]Result, SearchStats){
			"base":    func() ([]Result, SearchStats) { return BaseBSearch(g, k) },
			"opt":     func() ([]Result, SearchStats) { return OptBSearch(g, k, 1.05) },
			"labeled": func() ([]Result, SearchStats) { return OptBSearchLabeled(g, k, 1.05, nil) },
		} {
			if res, st := run(); len(res) != 0 || st != (SearchStats{}) {
				t.Errorf("%s k=%d: %d results, %+v; want none and zero stats", name, k, len(res), st)
			}
		}
		if res := TopKExact(g, k); len(res) != 0 {
			t.Errorf("TopKExact k=%d: %d results, want none", k, len(res))
		}
		if res := TopKOfScores(cb, k); len(res) != 0 {
			t.Errorf("TopKOfScores k=%d: %d results, want none", k, len(res))
		}
	}
}

// TestSearchAllTiedScores: on vertex-transitive graphs every CB ties, and
// the tie rule (ascending id) alone decides the answer: the searches return
// vertices 0…k−1 although the heap offers the largest ids first.
func TestSearchAllTiedScores(t *testing.T) {
	// Cycle C12: every vertex has CB = 1 (its two neighbors are
	// non-adjacent with no connector in the ego).
	var edges [][2]int32
	for i := int32(0); i < 12; i++ {
		edges = append(edges, [2]int32{i, (i + 1) % 12})
	}
	g := graph.MustFromEdges(12, edges)
	want := []Result{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}}
	opt, _ := OptBSearch(g, 5, 1.05)
	assertSameResults(t, "OptBSearch", want, opt)
	base, _ := BaseBSearch(g, 5)
	assertSameResults(t, "BaseBSearch", want, base)
}

// TestOptBSearchThetaClamped: θ < 1 is clamped to 1 rather than corrupting
// the pruning logic, and so is NaN: it runs the search θ = 1 runs, counters
// included, rather than one whose dynamic bound never defers (θ·ũb < tb is
// false for NaN).
func TestOptBSearchThetaClamped(t *testing.T) {
	g := paperex.New()
	res, _ := OptBSearch(g, 5, 0.2)
	for i, want := range paperex.Top5 {
		if res[i].V != want {
			t.Fatalf("clamped theta: rank %d = %v", i, res[i])
		}
	}
	h := gen.ChungLu(300, 2.2, 5.3, 40, 1)
	want, wantStats := OptBSearch(h, 10, 1)
	if wantStats.Reinserted == 0 {
		t.Fatalf("θ=1 reinserts nothing (%+v): the check below would be vacuous", wantStats)
	}
	for _, theta := range []float64{math.NaN(), 0.2, math.Inf(-1)} {
		got, st := OptBSearch(h, 10, theta)
		assertSameResults(t, fmt.Sprintf("θ=%v", theta), want, got)
		if st != wantStats {
			t.Errorf("θ=%v: SearchStats %+v, want θ=1's %+v", theta, st, wantStats)
		}
	}
}

// TestTopKExactMatchesSearchOnPaperGraph: the three top-k paths agree on
// every k for the running example.
func TestTopKExactMatchesSearchOnPaperGraph(t *testing.T) {
	g := paperex.New()
	for k := 1; k <= int(paperex.NumVertices)+2; k++ {
		exact := TopKExact(g, k)
		base, _ := BaseBSearch(g, k)
		opt, _ := OptBSearch(g, k, 1.05)
		assertSameResults(t, fmt.Sprintf("BaseBSearch k=%d", k), exact, base)
		assertSameResults(t, fmt.Sprintf("OptBSearch k=%d", k), exact, opt)
	}
}
