package ego

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/paperex"
)

// boundCases are the graphs the two bound properties run on: the paper's
// running example and random graphs.
func boundCases() map[string]*graph.Graph {
	cases := map[string]*graph.Graph{"paper": paperex.New()}
	for seed := uint64(600); seed < 640; seed++ {
		cases[fmt.Sprintf("random/%d", seed)] = gen.Random(seed, 50)
	}
	return cases
}

// eachSearchState drives OptBSearch's loop one pop at a time over a grid of
// k and θ and calls check on the searcher before the first pop and after
// every one.
func eachSearchState(g *graph.Graph, check func(stage string, q *searcher)) {
	n := int(g.NumVertices())
	for _, k := range []int{1, 5, n / 2, n} {
		for _, theta := range []float64{1, 1.05, 1.5} {
			q := newSearcher(g, k, theta, nil, true)
			stage := fmt.Sprintf("k=%d θ=%v pop ", k, theta)
			check(stage+"0", q)
			for pop := 1; q.step(); pop++ {
				check(stage+fmt.Sprint(pop), q)
			}
		}
	}
}

// TestDynamicBoundDominatesCB asserts Lemma 3 for the counter bound: at
// every pop of the search loop, ũb(v) = d(d−1)/2 − t(v) is an upper bound of
// the true CB(v) for every vertex — computed, deferred or never touched.
func TestDynamicBoundDominatesCB(t *testing.T) {
	for name, g := range boundCases() {
		truth := ComputeAll(g)
		eachSearchState(g, func(stage string, q *searcher) {
			for v := int32(0); v < g.NumVertices(); v++ {
				if ub := q.bound(v); ub < truth[v] {
					t.Fatalf("%s %s: ũb(%d)=%v < CB=%v", name, stage, v, ub, truth[v])
				}
			}
		})
	}
}

// TestOnceDiscipline asserts the loop's core safety property: every triangle
// is credited at most once per corner, so t(v) never exceeds the number of
// adjacent neighbor pairs of v — the triangles through v — at any pop, and
// the CreditOps counter is exactly the credits held.
func TestOnceDiscipline(t *testing.T) {
	for name, g := range boundCases() {
		triangles := make([]int64, g.NumVertices())
		for v := range triangles {
			for _, u := range g.Neighbors(int32(v)) {
				triangles[v] += int64(nbr.CommonCount(g, int32(v), u))
			}
			triangles[v] /= 2
		}
		eachSearchState(g, func(stage string, q *searcher) {
			var held int64
			for v, tv := range q.t {
				if tv > triangles[v] {
					t.Fatalf("%s %s: t(%d)=%d > %d adjacent pairs", name, stage, v, tv, triangles[v])
				}
				held += tv
			}
			if held != q.st.CreditOps {
				t.Fatalf("%s %s: counters hold %d credits, CreditOps says %d", name, stage, held, q.st.CreditOps)
			}
		})
	}
}
