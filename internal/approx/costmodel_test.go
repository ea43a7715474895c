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
// k = 100 pool — copies their ego CSRs as the race does, and times,
// round-robin over the pool the way racing rounds visit it, the exact
// counting pass (ns/step), batches of 64 draws (ns/draw) and the table copy,
// next to the mean merged row length L = 2·|adj|/d of a draw. steps/draw and
// steps/copied convert the last two into kernel steps.
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
			var steps, merge, entries float64
			for _, v := range graph.OrderOf(sh.g)[:200] {
				_, off, adj := s.EgoCSR(sh.g, v)
				if len(off) < 3 {
					continue
				}
				c := &cand{v: v, d: len(off) - 1, off: slices.Clone(off), arena: slices.Clone(adj)}
				c.rng = rand.New(rand.NewPCG(1, streamOf(v)))
				c.price(off, adj)
				steps += c.work
				merge += 2 * float64(len(adj)) / float64(c.d)
				entries += float64(len(off) + len(adj))
				pool = append(pool, c)
			}
			const draws = 64
			var pass, sample, copying time.Duration
			for b.Loop() {
				start := time.Now()
				for _, c := range pool {
					s.ScoreCSR(c.off, c.arena)
				}
				mid := time.Now()
				for _, c := range pool {
					c.sample(draws)
				}
				end := time.Now()
				for _, c := range pool {
					c.off, c.arena = slices.Clone(c.off), slices.Clone(c.arena)
				}
				pass, sample, copying = pass+mid.Sub(start), sample+end.Sub(mid), copying+time.Since(end)
			}
			nsStep := float64(pass.Nanoseconds()) / (float64(b.N) * steps)
			nsDraw := float64(sample.Nanoseconds()) / float64(b.N*draws*len(pool))
			b.ReportMetric(nsStep, "ns/step")
			b.ReportMetric(nsDraw, "ns/draw")
			b.ReportMetric(merge/float64(len(pool)), "L")
			b.ReportMetric(nsDraw/nsStep, "steps/draw")
			b.ReportMetric(float64(copying.Nanoseconds())/(float64(b.N)*entries)/nsStep, "steps/copied")
		})
	}
}

// TestCostModelDecisions pins the cost rule's decision on four egos at the
// default ε (t_max = 738 draws):
//   - clique-heavy: p at the center of 14 K4s, so N(p) is 14 disjoint
//     triangles — 861 pairs, over the budget, but a 126-step counting pass,
//     under the first batch's ~134: exact at first touch;
//   - a powerlaw hub, whose ~86k-step pass outprices even its whole budget:
//     it samples until the stopping rule resolves it;
//   - a collab-shaped hub, pricier than its first batch but not than the
//     rest of its budget: one batch, then exact at the next barrier;
//   - a 39-clique: 703 pairs, within the budget, so exact at first touch
//     although its pass outprices the first batch.
//
// An exact candidate's interval has zero width, its score is the kernel's,
// and a round on it afterwards is a no-op.
func TestCostModelDecisions(t *testing.T) {
	var windmill, clique [][2]int32
	for c := int32(0); c < 14; c++ {
		a, b, x := 1+3*c, 2+3*c, 3+3*c
		windmill = append(windmill, [2]int32{0, a}, [2]int32{0, b}, [2]int32{0, x}, [2]int32{a, b}, [2]int32{a, x}, [2]int32{b, x})
	}
	for u := int32(0); u < 39; u++ {
		for v := u + 1; v < 39; v++ {
			clique = append(clique, [2]int32{u, v})
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
		{"pairs within budget", graph.MustFromEdges(39, clique), 0, 0},
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
