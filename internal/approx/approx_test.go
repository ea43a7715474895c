package approx

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestEverettBorgattiOracle cross-checks the closed-form oracle against
// the per-ego kernel and the BFS reference on many random graphs — three
// independent implementations agreeing on every vertex.
func TestEverettBorgattiOracle(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		g := gen.Random(seed, 40)
		all := ego.ComputeAll(g)
		for v := int32(0); v < g.NumVertices(); v++ {
			if got := EverettBorgatti(g, v); math.Abs(got-all[v]) > 1e-9 {
				t.Fatalf("seed %d vertex %d: oracle %v, ComputeAll %v", seed, v, got, all[v])
			}
			if got, ref := EverettBorgatti(g, v), ego.ReferenceBFS(g, v); math.Abs(got-ref) > 1e-9 {
				t.Fatalf("seed %d vertex %d: oracle %v, BFS reference %v", seed, v, got, ref)
			}
		}
	}
}

// TestEverettBorgattiOnGenerators spot-checks the oracle on each
// generator family at a sampled set of vertices.
func TestEverettBorgattiOnGenerators(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ba":  gen.BarabasiAlbert(300, 3, 2),
		"aff": gen.Affiliation(300, 120, 5, 1, 5),
		"ws":  gen.WattsStrogatz(300, 6, 0.1, 4),
	}
	for name, g := range graphs {
		all := ego.ComputeAll(g)
		for v := int32(0); v < g.NumVertices(); v += 13 {
			if got := EverettBorgatti(g, v); math.Abs(got-all[v]) > 1e-9 {
				t.Errorf("%s vertex %d: oracle %v, ComputeAll %v", name, v, got, all[v])
			}
		}
	}
}

// TestTopKExactOnSmallGraphs: when every vertex's counting pass prices
// within its sampling budget the whole pool resolves on the exact path, so
// approx must equal the exhaustive top-k score for score.
func TestTopKExactOnSmallGraphs(t *testing.T) {
	// maxN = 30 keeps every ego's pass within its whole default budget of
	// ~738 draws, so no vertex can take the sampling path.
	for seed := uint64(0); seed < 30; seed++ {
		g := gen.Random(seed, 30)
		for _, k := range []int{1, 3, 10} {
			want := ego.TopKExact(g, k)
			got, st := TopK(g, k, Options{})
			if st.Sampled != 0 {
				t.Fatalf("seed %d: sampled %d vertices on a small graph", seed, st.Sampled)
			}
			if st.EpsAchieved != 0 {
				t.Fatalf("seed %d: eps achieved %v on all-exact path", seed, st.EpsAchieved)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d k=%d: %d results, want %d", seed, k, len(got), len(want))
			}
			for i := range want {
				if math.Abs(got[i].CB-want[i].CB) > 1e-9 {
					t.Fatalf("seed %d k=%d rank %d: %v, want %v", seed, k, i, got[i].CB, want[i].CB)
				}
			}
		}
	}
}

// TestTopKErrorBounds verifies the (ε, δ) contract against exact scores on
// hub-heavy graphs where sampling actually engages: every returned estimate
// must lie within ε·ub(p) of the true CB(p). At ε = 0.02 the budget covers
// every pass of the preferential-attachment graph, so the Chung–Lu graph's
// larger hubs are what sample there. The runs are deterministic (fixed
// seed), so a pass is stable, and the per-vertex failure probability
// δ = 0.05 makes a >k-wide systematic violation astronomically unlikely to
// have been baked in.
func TestTopKErrorBounds(t *testing.T) {
	graphs := []*graph.Graph{gen.BarabasiAlbert(1500, 12, 7), gen.ChungLu(6000, 2.1, 8, 1200, 7)}
	exact := make([][]float64, len(graphs))
	for i, g := range graphs {
		exact[i] = ego.ComputeAll(g)
	}
	for _, eps := range []float64{0.02, 0.1} {
		var sampled int64
		for i, g := range graphs {
			res, st := TopK(g, 25, Options{Eps: eps, Seed: 42})
			sampled += st.Sampled
			if st.EpsAchieved > eps+1e-12 {
				t.Fatalf("eps=%v graph %d: achieved %v", eps, i, st.EpsAchieved)
			}
			bad := 0
			for _, r := range res {
				tol := eps * ego.StaticUB(g.Degree(r.V))
				if math.Abs(r.CB-exact[i][r.V]) > tol+1e-9 {
					bad++
				}
			}
			if bad > 0 {
				t.Fatalf("eps=%v graph %d: %d/%d returned estimates outside ε·ub", eps, i, bad, len(res))
			}
		}
		if sampled == 0 {
			t.Fatalf("eps=%v: estimator never sampled (max degrees %d, %d)", eps, graph.ComputeStats(graphs[0]).DMax, graph.ComputeStats(graphs[1]).DMax)
		}
	}
}

// TestTopKDeterministicAcrossWorkersAndViews pins the determinism
// contract: for a fixed seed, results and sample counts are bit-identical
// whatever the worker count and whichever view flavor (frozen CSR,
// overlay, dynamic graph) serves the same adjacency.
func TestTopKDeterministicAcrossWorkersAndViews(t *testing.T) {
	full := gen.BarabasiAlbert(800, 10, 3)

	overlay := overlayOf(t, full)

	// Fully dynamic copy.
	dyn2 := graph.DynFromGraph(full)

	opt := Options{Seed: 99, Workers: 1}
	want, wantSt := TopK(full, 20, opt)
	for name, v := range map[string]graph.View{"overlay": overlay, "dyn": dyn2, "frozen-again": full} {
		for _, workers := range []int{1, 3, 8} {
			o := opt
			o.Workers = workers
			got, st := TopK(v, 20, o)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: results diverge\n got %v\nwant %v", name, workers, got, want)
			}
			if st.Samples != wantSt.Samples || st.Candidates != wantSt.Candidates {
				t.Fatalf("%s workers=%d: stats diverge: %+v vs %+v", name, workers, st, wantSt)
			}
		}
	}

	// A different seed must be allowed to answer differently (same top
	// set, but sample streams — and hence estimates — move).
	other, _ := TopK(full, 20, Options{Seed: 100})
	if reflect.DeepEqual(other, want) {
		t.Log("seed change produced identical estimates (possible but unlikely)")
	}
}

// doneAfter is a context whose Err reports it done from its n+1-th call on,
// so a race checking it once per round stops after n rounds.
type doneAfter struct {
	context.Context
	n int
}

func (c *doneAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestTopKContext: a context that is never done answers what TopK does,
// and one done before the first round or mid-race — with candidates still
// sampling — ends TopKContext with its error and no results.
func TestTopKContext(t *testing.T) {
	g := gen.ChungLu(3000, 2.1, 8, 400, 1)
	o := Options{Seed: 3, Workers: 2}
	want, wantSt := TopK(g, 50, o)
	got, st, err := TopKContext(context.Background(), g, 50, o)
	if err != nil || !reflect.DeepEqual(got, want) || st != wantSt {
		t.Fatalf("background context: err %v, stats %+v, want TopK's %+v", err, st, wantSt)
	}
	if wantSt.Sampled == 0 {
		t.Fatal("nothing sampled: the race has a single round")
	}
	for _, n := range []int{0, 1} {
		res, _, err := TopKContext(&doneAfter{context.Background(), n}, g, 50, o)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("done after %d rounds: %d results, err %v; want none and context.Canceled", n, len(res), err)
		}
	}
}

// TestTopKRecallSanity: on an affiliation graph (the bench family) a tight
// ε must recover most of the exact top-k.
func TestTopKRecallSanity(t *testing.T) {
	g := gen.Affiliation(2500, 1100, 5.5, 1, 9)
	exact := ego.TopKExact(g, 50)
	res, _ := TopK(g, 50, Options{Eps: 0.02, Seed: 1})
	if r := ego.Overlap(exact, res); r < 0.8 {
		t.Fatalf("recall@50 = %v, want ≥ 0.8", r)
	}
}

// TestTopKEdgeCases covers degenerate inputs.
func TestTopKEdgeCases(t *testing.T) {
	empty := graph.MustFromEdges(0, nil)
	if res, _ := TopK(empty, 5, Options{}); len(res) != 0 {
		t.Fatalf("empty graph: %v", res)
	}
	g := gen.Random(3, 30)
	if res, _ := TopK(g, 0, Options{}); len(res) != 0 {
		t.Fatalf("k=0: %v", res)
	}
	n := int(g.NumVertices())
	res, st := TopK(g, n+10, Options{})
	if len(res) != n {
		t.Fatalf("k>n returned %d results, want %d", len(res), n)
	}
	if st.Candidates != n {
		t.Fatalf("k>n candidates %d, want %d", st.Candidates, n)
	}
}

// TestEscalationSoundness builds a graph whose top hub hides behind many
// near-ties so the initial pool alone cannot certify the cut, and checks
// the escalation still finds the true top vertices.
func TestEscalationSoundness(t *testing.T) {
	g := gen.ChungLu(2000, 2.1, 8, 400, 11)
	exact := ego.TopKExact(g, 10)
	res, st := TopK(g, 10, Options{Eps: 0.02, Seed: 5})
	if r := ego.Overlap(exact, res); r < 0.8 {
		t.Fatalf("recall@10 = %v (stats %+v)", r, st)
	}
	if st.Candidates < 10 {
		t.Fatalf("candidates %d < k", st.Candidates)
	}
}

// BenchmarkTopK prices an approx k=100 query at the frontier ε points on
// a dataset-shaped skewed graph.
func BenchmarkTopK(b *testing.B) {
	g := dataset.MustLoad("dblp")
	for _, eps := range []float64{0.05, 0.1} {
		b.Run(fmt.Sprintf("eps=%v", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				TopK(g, 100, Options{Eps: eps})
			}
		})
	}
}

// TestTopKCoverage is the statistical (ε, δ) check: over 60 seeds of a
// Chung–Lu hub graph, whose hubs' counting passes outprice their sampling
// budgets, every returned estimate that sampling resolved must lie within
// ε·ub of the kernel's score with probability ≥ conf. The covered share must
// reach conf less three binomial standard deviations of a conf-coverage
// estimator over the same count. Every returned vertex the cost rule
// resolved exactly must carry the kernel's score bit for bit.
func TestTopKCoverage(t *testing.T) {
	const k = 50
	o := Options{Seed: 3, Workers: 2}.withDefaults()
	var sampled, covered, exact int
	for seed := uint64(1); seed <= 60; seed++ {
		g := gen.ChungLu(3000, 2.1, 8, 400, seed)
		all := ego.ComputeAll(g)
		top, st := topK(g, k, o)
		if len(top) != k {
			t.Fatalf("seed %d: %d results, want %d (stats %+v)", seed, len(top), k, st)
		}
		for _, c := range top {
			switch c.state {
			case candExact:
				exact++
				if c.est != all[c.v] {
					t.Errorf("seed %d: exact-resolved vertex %d scored %v, kernel %v", seed, c.v, c.est, all[c.v])
				}
			case candResolved:
				sampled++
				if math.Abs(c.est-all[c.v]) <= o.Eps*c.ub {
					covered++
				}
			default:
				t.Fatalf("seed %d: returned vertex %d in state %d", seed, c.v, c.state)
			}
		}
	}
	if sampled < 200 {
		t.Fatalf("only %d returned estimates were sampled (%d exact): the check has no power", sampled, exact)
	}
	n := float64(sampled)
	floor := o.Conf - 3*math.Sqrt(o.Conf*(1-o.Conf)/n)
	if share := float64(covered) / n; share < floor {
		t.Errorf("%d/%d sampled estimates within ε·ub (%.4f), want ≥ %.4f", covered, sampled, share, floor)
	}
	t.Logf("%d/%d sampled estimates within ε·ub; %d exact-resolved", covered, sampled, exact)
}
