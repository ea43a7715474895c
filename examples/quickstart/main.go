// Quickstart: the paper's Fig. 1 running example, end to end.
//
// Builds the 16-vertex graph from the paper, computes every vertex's
// ego-betweenness, runs the top-5 search both ways, and replays the paper's
// Example 5 edge insertion — printing the values the paper derives
// (CB(d)=14/3, CB(f)=11, top-5 = {f, x, i, c, d}, ...).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	egobw "repro"
	"repro/internal/paperex"
)

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

	// Top-5 with both search algorithms (Examples 3-4).
	base, bst := egobw.TopK(g, 5, egobw.WithBaseSearch())
	opt, ost := egobw.TopK(g, 5) // OptBSearch, θ = 1.05
	fmt.Println("\nTop-5 (paper: f, x, i, c, d):")
	for i := range opt {
		fmt.Printf("  %d. %s  CB=%.4f\n", i+1, paperex.Names[opt[i].V], opt[i].CB)
	}
	fmt.Printf("BaseBSearch computed %d of %d vertices exactly (paper: 10).\n",
		bst.Computed, g.NumVertices())
	fmt.Printf("OptBSearch computed %d — the dynamic bound pruned harder.\n", ost.Computed)
	_ = base

	// Example 5: insert edge (i, k) and watch the local updates.
	m := egobw.NewMaintainer(g)
	if err := m.InsertEdge(paperex.I, paperex.K); err != nil {
		panic(err)
	}
	fmt.Println("\nAfter inserting (i,k) — Example 5:")
	for _, v := range []int32{paperex.I, paperex.K, paperex.F, paperex.J} {
		fmt.Printf("  CB(%s) = %.2f\n", paperex.Names[v], m.CB(v))
	}
	fmt.Println("(paper: CB(i)=10.5, CB(k)=0.5, CB(f)=9.5)")
}
