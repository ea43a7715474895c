// Dynamic edge stream: maintaining the top-k under churn (Section IV).
//
// Simulates a friendship stream over a social graph — edges arriving and
// dissolving — while two maintainers track ego-betweenness: the exact
// all-vertices Maintainer (LocalInsert/LocalDelete) and the LazyTopK
// maintainer (LazyInsert/LazyDelete), which recomputes only what the top-k
// needs. The example cross-checks them and reports how much work laziness
// saved.
//
//	go run ./examples/dynamicstream
package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	egobw "repro"
)

func main() {
	g := egobw.GenerateBA(8000, 4, 7)
	fmt.Println("starting graph:", egobw.Stats(g))
	const k = 10
	const steps = 400

	local := egobw.NewMaintainer(g)
	lazy := egobw.NewLazyTopK(g, k)
	rng := rand.New(rand.NewPCG(99, 100))
	n := g.NumVertices()

	var inserted [][2]int32
	t0 := time.Now()
	ins, del := 0, 0
	for step := 0; step < steps; step++ {
		if len(inserted) > 0 && rng.Float64() < 0.4 {
			// Dissolve a previously created friendship.
			i := rng.IntN(len(inserted))
			e := inserted[i]
			inserted[i] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
			if err := local.DeleteEdge(e[0], e[1]); err != nil {
				panic(err)
			}
			if err := lazy.DeleteEdge(e[0], e[1]); err != nil {
				panic(err)
			}
			del++
			continue
		}
		// New friendship between random users.
		u, v := rng.Int32N(n), rng.Int32N(n)
		if u == v || local.Graph().HasEdge(u, v) {
			continue
		}
		if err := local.InsertEdge(u, v); err != nil {
			panic(err)
		}
		if err := lazy.InsertEdge(u, v); err != nil {
			panic(err)
		}
		inserted = append(inserted, [2]int32{u, v})
		ins++
	}
	elapsed := time.Since(t0)

	fmt.Printf("\nprocessed %d inserts + %d deletes in %v (%.3f ms/update, both maintainers)\n",
		ins, del, elapsed.Round(time.Millisecond),
		float64(elapsed.Microseconds())/1000/float64(ins+del))

	// The two maintainers must agree on the top-k scores.
	want := local.TopK(k)
	got := lazy.Results()
	for i := range want {
		if want[i].CB != got[i].CB {
			panic(fmt.Sprintf("maintainers disagree at rank %d: %v vs %v",
				i+1, got[i], want[i]))
		}
	}
	fmt.Printf("\ntop-%d after the stream (lazy == exact, verified):\n", k)
	for i, r := range got {
		fmt.Printf("  %2d. vertex %-6d CB=%.2f\n", i+1, r.V, r.CB)
	}
	fmt.Printf("\nlazy maintainer recomputed %d vertices across %d updates (%.2f/update);\n",
		lazy.Stats.Recomputed, ins+del, float64(lazy.Stats.Recomputed)/float64(ins+del))
	fmt.Printf("%d vertices were handled by just flipping a staleness flag.\n",
		lazy.Stats.StaleMarked)
}
