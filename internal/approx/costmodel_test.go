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
// whole pool), batches of 64 draws (ns/draw) and the table copy, next to
// the mean merged row length L = 2·|adj|/d of a draw. steps/draw and
// steps/copied convert the last two into the pool's kernel steps.
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
			var merge, entries float64
			for _, v := range graph.OrderOf(sh.g)[:200] {
				_, off, adj := s.EgoCSR(sh.g, v)
				if len(off) < 3 {
					continue
				}
				c := &cand{v: v, d: len(off) - 1, off: slices.Clone(off), arena: slices.Clone(adj)}
				c.rng = rand.New(rand.NewPCG(1, streamOf(v)))
				c.work = float64(s.Price(off, adj))
				f := &forms[0]
				if c.d <= 64 {
					f = &forms[1]
				}
				f.pool, f.steps = append(f.pool, c), f.steps+c.work
				merge += 2 * float64(len(adj)) / float64(c.d)
				entries += float64(len(off) + len(adj))
				pool = append(pool, c)
			}
			const draws = 64
			var sample, copying time.Duration
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
				end := time.Now()
				for _, c := range pool {
					c.off, c.arena = slices.Clone(c.off), slices.Clone(c.arena)
				}
				sample, copying = sample+end.Sub(start), copying+time.Since(end)
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
			b.ReportMetric(float64(copying.Nanoseconds())/(float64(b.N)*entries)/nsStep, "steps/copied")
		})
	}
}

// TestCostModelDecisions pins the cost rule's decision on five egos at the
// default ε (t_max = 738 draws), in ego.Scratch.Price's steps:
//   - clique-heavy: p at the center of 14 K4s, so N(p) is 14 disjoint
//     triangles — 861 pairs, over the budget, but one-word rows that visit
//     no pair, an 84-step pass under the first batch's ~486: exact at first
//     touch;
//   - a powerlaw hub, whose ~86k-step pass outprices even its whole budget
//     (~23k): it samples until the stopping rule resolves it;
//   - a collab-shaped hub (d = 163, the walk), whose ~6.3k-step pass
//     outprices its first batch (~1.7k) but not the rest of its budget
//     (~19k): one batch, then exact at the next barrier;
//   - an apex over K_{19,19}: 703 pairs, within the budget, so exact at first
//     touch although its ~7.2k-step pass outprices the first batch (~2.2k);
//   - a collab ego of degree 64, one-word rows: 2,016 pairs, over the
//     budget, and a 725-step pass under the first batch's ~1.3k, so exact at
//     first touch. The walk's price, 2,720 steps, put it over the first
//     batch of the rule before one-word rows were priced, and it sampled.
//
// An exact candidate's interval has zero width, its score is the kernel's,
// and a round on it afterwards is a no-op.
func TestCostModelDecisions(t *testing.T) {
	var windmill, bipartite [][2]int32
	for c := int32(0); c < 14; c++ {
		a, b, x := 1+3*c, 2+3*c, 3+3*c
		windmill = append(windmill, [2]int32{0, a}, [2]int32{0, b}, [2]int32{0, x}, [2]int32{a, b}, [2]int32{a, x}, [2]int32{b, x})
	}
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
		{"clique-heavy", graph.MustFromEdges(43, windmill), 0, 0},
		{"powerlaw hub", powerlaw, graph.OrderOf(powerlaw)[0], -1},
		{"collab hub", collab, graph.OrderOf(collab)[1], sampleBatch},
		{"pairs within budget", graph.MustFromEdges(39, bipartite), 0, 0},
		{"collab one-word rows", collab, graph.OrderOf(collab)[34], 0},
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
