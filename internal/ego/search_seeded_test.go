package ego

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSearchSeededMatchesExact: seeded with exact scores for some vertices
// and upper bounds for the rest, the search answers TopKExact's list, ids
// and bits, at every k and with kernels inline or speculated on helpers;
// it runs the kernel only on stale candidates. The bounds range from the
// exact score itself (a tie) through the ceiling d(d−1)/2 − t(v) to the
// static bound, with ties across degree classes on the regular graph.
func TestSearchSeededMatchesExact(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"collab":   gen.Affiliation(400, 200, 5.5, 1, 3),
		"powerlaw": gen.ChungLu(500, 2.2, 5.3, 60, 3),
		"ring":     gen.WattsStrogatz(120, 4, 0, 3), // every score ties
		"edgeless": graph.MustFromEdges(40, nil),
	} {
		n := g.NumVertices()
		cb := ComputeAll(g)
		s := NewScratch(n)
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		for _, share := range []float64{0, 0.1, 0.5, 1} {
			score, stale := slices.Clone(cb), make([]bool, n)
			for v := range score {
				if rng.Float64() >= share {
					continue
				}
				stale[v] = true
				_, _, adj := s.EgoCSR(g, int32(v))
				switch d := g.Degree(int32(v)); rng.IntN(3) {
				case 1:
					score[v] = StaticUB(d) - float64(len(adj)/2)
				case 2:
					score[v] = StaticUB(d)
				}
			}
			at := func(v int32) float64 { return score[v] }
			isStale := func(v int32) bool { return stale[v] }
			for _, k := range []int{1, 4, 10, 50, int(n) / 2, int(n)} {
				want := TopKExact(g, k)
				for _, w := range []int{1, 3} {
					got, st, err := search(context.Background(), g, k, 1, nil, false, &seed{at, isStale}, w, 0)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s share=%v k=%d W=%d: %v, exact %v", name, share, k, w, got, want)
					}
					if share == 0 && st.Computed != 0 {
						t.Fatalf("%s k=%d W=%d: %d kernels with no stale vertex", name, k, w, st.Computed)
					}
				}
			}
		}
	}
}
