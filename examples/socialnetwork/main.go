// Social-network influencer search: the paper's motivating use case.
//
// Generates a power-law social graph, finds the top-k "influencers" by
// ego-betweenness, and validates the paper's effectiveness claim by
// comparing against exact betweenness centrality — ego-betweenness is a few
// orders of magnitude cheaper and lands mostly the same vertices. The
// search's answer is checked against the top-k of every vertex's score
// (ComputeAll, ties to the smaller id): same vertices, same bits, or a panic.
//
//	go run ./examples/socialnetwork
package main

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	egobw "repro"
)

func main() {
	// A Youtube-like power-law graph: 12k users, heavy-tailed degrees.
	g := egobw.GenerateChungLu(12000, 2.2, 6, 600, 2024)
	fmt.Println("social graph:", egobw.Stats(g))

	const k = 25
	t0 := time.Now()
	influencers, st := egobw.TopK(g, k)
	tEBW := time.Since(t0)
	fmt.Printf("\nTop-%d by ego-betweenness (%v, %d of %d vertices computed exactly):\n",
		k, tEBW.Round(time.Millisecond), st.Computed, g.NumVertices())
	for i, r := range influencers {
		fmt.Printf("  %2d. user %-6d CB=%10.1f degree=%d\n", i+1, r.V, r.CB, g.Degree(r.V))
	}

	// The search must return exactly the top-k of all scores.
	cb := egobw.ComputeAll(g)
	ids := make([]int32, len(cb))
	for v := range ids {
		ids[v] = int32(v)
	}
	slices.SortFunc(ids, func(u, v int32) int { return cmp.Or(cmp.Compare(cb[v], cb[u]), cmp.Compare(u, v)) })
	for i, v := range ids[:k] {
		if r := influencers[i]; r.V != v || r.CB != cb[v] {
			panic(fmt.Sprintf("TopK rank %d: user %d CB=%v; top-k of ComputeAll: user %d CB=%v", i+1, r.V, r.CB, v, cb[v]))
		}
	}
	fmt.Printf("TopK equals the top-%d of ComputeAll over all %d vertices.\n", k, len(cb))

	// The expensive alternative: exact betweenness over the whole graph.
	t0 = time.Now()
	classic := egobw.BetweennessTopK(g, k, 0)
	tBW := time.Since(t0)
	fmt.Printf("\nTop-%d by classic betweenness (Brandes): %v\n", k, tBW.Round(time.Millisecond))
	fmt.Printf("speedup: %.0fx   top-%d overlap: %.0f%%\n",
		float64(tBW)/float64(tEBW), k, egobw.Overlap(influencers, classic)*100)
	fmt.Println("\nThe overlap is the paper's Fig. 11 effect: ego-betweenness picks")
	fmt.Println("nearly the same bridge vertices at a fraction of the cost.")
}
