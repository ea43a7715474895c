package approx

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkCostModel calibrates the cost rule's prices; the figures it
// printed are in the comment on drawBase. On the benchmark's collab- and
// powerlaw-shaped generators it takes the 200 highest-degree vertices — the
// k = 100 pool — copies their ego CSRs as the race does, prices each with
// ego.Scratch.Price, and times, round-robin over the pool the way racing
// rounds visit it, the exact counting pass of the egos on the walk
// (d > 64) and of those on one-word rows (ns/step of each, and of the
// whole pool) and batches of 64 draws (ns/draw), next to the mean merged
// row length L = 2·|adj|/d of a draw. steps/draw converts a draw into the
// pool's kernel steps.
func BenchmarkCostModel(b *testing.B) {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"collab", gen.Affiliation(16000, 8000, 5.5, 1, 1)},
		{"powerlaw", gen.ChungLu(20000, 2.2, 5.3, 800, 1)},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			s := ego.NewScratch(sh.g.NumVertices())
			var pool []*cand
			var forms [2]struct { // [0] the walk, [1] one-word rows
				pool  []*cand
				steps float64
				pass  time.Duration
			}
			var merge float64
			for _, v := range graph.OrderOf(sh.g)[:200] {
				_, off, adj := s.EgoCSR(sh.g, v)
				if len(off) < 3 {
					continue
				}
				c := &cand{v: v, d: len(off) - 1, off: slices.Clone(off), arena: slices.Clone(adj)}
				c.rng = rand.New(rand.NewPCG(1, streamOf(v)))
				f := &forms[0]
				if c.d <= 64 {
					f = &forms[1]
				}
				f.pool, f.steps = append(f.pool, c), f.steps+float64(s.Price(off, adj))
				merge += 2 * float64(len(adj)) / float64(c.d)
				pool = append(pool, c)
			}
			const draws = 64
			var sample time.Duration
			drawTime := make([]time.Duration, len(pool))
			for b.Loop() {
				for i := range forms {
					start := time.Now()
					for _, c := range forms[i].pool {
						s.ScoreCSR(c.off, c.arena)
					}
					forms[i].pass += time.Since(start)
				}
				start := time.Now()
				for i, c := range pool {
					t := time.Now()
					c.sample(draws)
					drawTime[i] += time.Since(t)
				}
				sample += time.Since(start)
			}
			perStep := func(pass time.Duration, steps float64) float64 {
				return float64(pass.Nanoseconds()) / (float64(b.N) * max(steps, 1))
			}
			nsStep := perStep(forms[0].pass+forms[1].pass, forms[0].steps+forms[1].steps)
			nsDraw := float64(sample.Nanoseconds()) / float64(b.N*draws*len(pool))
			b.ReportMetric(nsStep, "ns/step")
			b.ReportMetric(perStep(forms[0].pass, forms[0].steps), "ns/step-walk")
			b.ReportMetric(perStep(forms[1].pass, forms[1].steps), "ns/step-words")
			b.ReportMetric(float64(len(forms[1].pool)), "words-egos")
			b.ReportMetric(nsDraw, "ns/draw")
			b.ReportMetric(merge/float64(len(pool)), "L")
			b.ReportMetric(nsDraw/nsStep, "steps/draw")
			// Least squares of each candidate's ns/draw over its L.
			var sl, sy, sll, sly float64
			for i, c := range pool {
				l := 2 * float64(len(c.arena)) / float64(c.d)
				y := float64(drawTime[i].Nanoseconds()) / float64(b.N*draws)
				sl, sy, sll, sly = sl+l, sy+y, sll+l*l, sly+l*y
			}
			n := float64(len(pool))
			slope := (n*sly - sl*sy) / (n*sll - sl*sl)
			b.ReportMetric((sy-slope*sl)/n/nsStep, "draw-base")
			b.ReportMetric(slope/nsStep, "draw-merge")
		})
	}
}

// TestCostModelDecisions pins the cost rule's decision on seven egos at the
// default ε (t_max = 738 draws): exact at first touch iff the pass's
// ego.Scratch.Price is within t_max draws at drawBase + drawMerge·L steps.
//   - clique-heavy: p at the center of 14 K4s, so N(p) is 14 disjoint
//     triangles; one-word rows that visit no pair price the pass at 84
//     steps, under a 9,594-step budget (13-step draws): exact;
//   - a powerlaw hub (d = 430, the walk), whose 85,985-step pass outprices
//     its 23,144-step budget (31.4-step draws): it samples until the
//     stopping rule resolves it;
//   - a collab-shaped hub (d = 163, the walk): a 6,270-step pass under a
//     20,324-step budget (27.5-step draws): exact;
//   - an apex over K_{19,19} (d = 38, one-word rows): a 7,220-step pass
//     under a 40,959-step budget (55.5-step draws): exact;
//   - a collab ego of degree 64, one-word rows: a 725-step pass under a
//     21,817-step budget (29.6-step draws): exact;
//   - p at the center of 477 K5s (d = 1,908, the walk, rows of 3): a
//     11,448-step pass just above its 11,439-step budget (15.5-step draws),
//     so it samples to the end; with one blade fewer the pass is 11,424
//     steps, just within the same budget, and it resolves exactly.
//
// An exact candidate's interval has zero width, its score is the kernel's,
// and a round on it afterwards is a no-op.
func TestCostModelDecisions(t *testing.T) {
	var bipartite [][2]int32
	for u := int32(1); u <= 19; u++ {
		bipartite = append(bipartite, [2]int32{0, u}, [2]int32{0, u + 19})
		for v := int32(20); v <= 38; v++ {
			bipartite = append(bipartite, [2]int32{u, v})
		}
	}
	collab := gen.Affiliation(4000, 2000, 5.5, 1, 9)
	powerlaw := gen.ChungLu(6000, 2.2, 5.3, 500, 11)
	cases := []struct {
		name string
		g    *graph.Graph
		v    int32
		// draws before the exact pass, or −1 when it samples to the end
		exactAfter int64
	}{
		{"clique-heavy", windmill(14, 3), 0, 0},
		{"powerlaw hub", powerlaw, graph.OrderOf(powerlaw)[0], -1},
		{"collab hub", collab, graph.OrderOf(collab)[1], 0},
		{"K19,19 apex", graph.MustFromEdges(39, bipartite), 0, 0},
		{"collab one-word rows", collab, graph.OrderOf(collab)[34], 0},
		{"just above the budget", windmill(477, 4), 0, -1},
		{"just within the budget", windmill(476, 4), 0, 0},
	}
	for _, tc := range cases {
		e := newEstimator(tc.g, Options{}.withDefaults())
		d := int(tc.g.Degree(tc.v))
		c := &cand{v: tc.v, d: d, ub: ego.StaticUB(int32(d)), high: ego.StaticUB(int32(d))}
		s := ego.NewScratch(tc.g.NumVertices())
		for c.state == candPending || c.state == candAlive {
			e.round(c, s)
		}
		if tc.exactAfter < 0 {
			if c.state != candResolved {
				t.Errorf("%s: ended in state %d after %d draws, want resolved by sampling", tc.name, c.state, c.t)
			}
			continue
		}
		if c.state != candExact || c.t != tc.exactAfter {
			t.Errorf("%s: ended in state %d after %d draws, want exact after %d", tc.name, c.state, c.t, tc.exactAfter)
			continue
		}
		if want := ego.EgoBetweenness(tc.g, tc.v, nil); c.est != want || c.low != want || c.high != want || c.halfNorm != 0 {
			t.Errorf("%s: exact candidate est %v [%v, %v] ±%v, want the kernel's %v", tc.name, c.est, c.low, c.high, c.halfNorm, want)
		}
		if c.off != nil || c.arena != nil {
			t.Errorf("%s: exact candidate kept its tables", tc.name)
		}
		e.round(c, s)
		if c.state != candExact || c.t != tc.exactAfter {
			t.Errorf("%s: a round on a settled candidate changed it (state %d, %d draws)", tc.name, c.state, c.t)
		}
	}
}

// windmill returns p = 0 at the center of blades copies of K_{size+1}: N(p)
// is blades disjoint cliques of size vertices each.
func windmill(blades, size int32) *graph.Graph {
	var edges [][2]int32
	for b := range blades {
		for i := int32(1); i <= size; i++ {
			u := b*size + i
			edges = append(edges, [2]int32{0, u})
			for w := u + 1; w <= (b+1)*size; w++ {
				edges = append(edges, [2]int32{u, w})
			}
		}
	}
	return graph.MustFromEdges(blades*size+1, edges)
}
