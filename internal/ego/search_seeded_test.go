package ego

import (
	"context"
	"errors"
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

// deadlineAfter is a context whose Err reports its deadline passed from its
// n+1-th call on, so a search checking it once per candidate stops after n
// candidates.
type deadlineAfter struct {
	context.Context
	n int
}

func (c *deadlineAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestSearchSeededDeadlinePrefix: a seeded search its deadline stops after
// any number j of candidates returns TopKExact's first results, ids and
// bits, and a *Partial whose Bound caps the first exact score it left out
// — or the whole answer and no error once nothing undecided could enter
// it. Some cut must leave a non-empty prefix short of the answer. It holds on a frozen CSR and on the overlay chain churn publishes,
// with kernels inline and on helpers, and from j = 0, where the prefix is
// the exact seeds above every stale bound.
func TestSearchSeededDeadlinePrefix(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 7)
	d := graph.DynFromGraph(g)
	churn(d, rand.New(rand.NewPCG(17, 19)), 300)
	for name, view := range map[string]graph.View{"frozen": g, "overlay": d.FreezeOverlay(g)} {
		n := view.NumVertices()
		cb := ComputeAll(view)
		rng := rand.New(rand.NewPCG(3, 5))
		score, stale := slices.Clone(cb), make([]bool, n)
		for v := range score {
			if rng.IntN(2) == 0 {
				stale[v] = true
				score[v] = StaticUB(view.Degree(int32(v)))
			}
		}
		sd := &seed{func(v int32) float64 { return score[v] }, func(v int32) bool { return stale[v] }}
		for _, k := range []int{1, 10, 100} {
			want := TopKExact(view, k)
			for _, w := range []int{1, 3} {
				partials, longest := 0, 0
				for j := 0; ; j++ {
					got, _, err := search(&deadlineAfter{context.Background(), j}, view, k, 1, nil, false, sd, w, 0)
					if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
						t.Fatalf("%s k=%d W=%d j=%d: prefix %v, exact %v", name, k, w, j, got, want)
					}
					var p *Partial
					if err == nil {
						if len(got) != len(want) {
							t.Fatalf("%s k=%d W=%d j=%d: %d of %d results and no error", name, k, w, j, len(got), len(want))
						}
						break
					}
					if !errors.As(err, &p) || !errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("%s k=%d W=%d j=%d: err %v, want a *Partial", name, k, w, j, err)
					}
					if len(got) == len(want) || want[len(got)].CB > p.Bound {
						t.Fatalf("%s k=%d W=%d j=%d: %d results under bound %v, exact %v", name, k, w, j, len(got), p.Bound, want)
					}
					partials++
					longest = max(longest, len(got))
				}
				if partials == 0 || longest == 0 && k > 1 {
					t.Fatalf("%s k=%d W=%d: %d deadlines cut the answer short, the longest prefix %d", name, k, w, partials, longest)
				}
			}
		}
	}
}
