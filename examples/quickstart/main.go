// Quickstart: the paper's Fig. 1 running example, end to end.
//
// Builds the 16-vertex graph from the paper, computes every vertex's
// ego-betweenness, runs the top-5 search both ways, and replays the paper's
// Example 5 edge insertion — printing the values the paper derives and
// panicking if any differs (CB(d)=14/3, CB(f)=11, top-5 = {f, x, i, c, d},
// BaseBSearch computing 10 vertices, and after inserting (i, k) CB(i)=10.5,
// CB(k)=0.5, CB(f)=9.5).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"slices"

	egobw "repro"
	"repro/internal/paperex"
)

// check panics with the formatted message unless ok.
func check(ok bool, format string, args ...any) {
	if !ok {
		panic(fmt.Sprintf(format, args...))
	}
}

// near reports whether got is the paper's value want, up to rounding.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9 }

func main() {
	g, err := egobw.NewGraph(paperex.NumVertices, paperex.Edges)
	if err != nil {
		panic(err)
	}
	fmt.Println("Fig. 1 graph:", egobw.Stats(g))

	// Exact ego-betweenness of every vertex (Definition 2).
	cb := egobw.ComputeAll(g)
	fmt.Println("\nEgo-betweennesses (Example 1-2):")
	for v, name := range paperex.Names {
		fmt.Printf("  CB(%s) = %.4f\n", name, cb[v])
	}
	check(near(cb[paperex.D], 14.0/3) && near(cb[paperex.F], 11), "CB(d) = %v, CB(f) = %v; paper 14/3 and 11",
		cb[paperex.D], cb[paperex.F])

	// Top-5 with both search algorithms (Examples 3-4).
	top5 := []int32{paperex.F, paperex.X, paperex.I, paperex.C, paperex.D}
	base, bst := egobw.TopK(g, 5, egobw.WithBaseSearch())
	opt, ost := egobw.TopK(g, 5) // OptBSearch, θ = 1.05
	fmt.Println("\nTop-5 (paper: f, x, i, c, d):")
	for i := range opt {
		fmt.Printf("  %d. %s  CB=%.4f\n", i+1, paperex.Names[opt[i].V], opt[i].CB)
	}
	for name, res := range map[string][]egobw.Result{"BaseBSearch": base, "OptBSearch": opt} {
		ids := make([]int32, len(res))
		for i, r := range res {
			ids[i] = r.V
			check(r.CB == cb[r.V], "%s: CB(%s) = %v, ComputeAll %v", name, paperex.Names[r.V], r.CB, cb[r.V])
		}
		check(slices.Equal(ids, top5), "%s top-5 %v, paper %v", name, ids, top5)
	}
	fmt.Printf("BaseBSearch computed %d of %d vertices exactly (paper: 10).\n",
		bst.Computed, g.NumVertices())
	check(bst.Computed == 10, "BaseBSearch computed %d vertices, paper 10", bst.Computed)
	fmt.Printf("OptBSearch computed %d — the dynamic bound pruned harder.\n", ost.Computed)

	// Example 5: insert edge (i, k) and watch the local updates.
	m := egobw.NewMaintainer(g)
	if err := m.InsertEdge(paperex.I, paperex.K); err != nil {
		panic(err)
	}
	fmt.Println("\nAfter inserting (i,k) — Example 5:")
	for _, v := range []int32{paperex.I, paperex.K, paperex.F, paperex.J} {
		fmt.Printf("  CB(%s) = %.2f\n", paperex.Names[v], m.CB(v))
	}
	for v, want := range map[int32]float64{paperex.I: 10.5, paperex.K: 0.5, paperex.F: 9.5} {
		check(near(m.CB(v), want), "after inserting (i,k): CB(%s) = %v, paper %v", paperex.Names[v], m.CB(v), want)
	}
	fmt.Println("(paper: CB(i)=10.5, CB(k)=0.5, CB(f)=9.5)")
}
