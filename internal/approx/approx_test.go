package approx

import (
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

// TestTopKExactOnSmallGraphs: when every vertex's pair count fits the
// Hoeffding budget the whole pool resolves on the exact path, so approx
// must equal the exhaustive top-k score for score.
func TestTopKExactOnSmallGraphs(t *testing.T) {
	// maxN = 30 keeps every pair count ≤ 29·28/2 = 406, under the default
	// Hoeffding budget of ~738, so no vertex can take the sampling path.
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
// a hub-heavy graph where sampling actually engages: every returned
// estimate must lie within ε·ub(p) of the true CB(p). The run is
// deterministic (fixed seed), so a pass is stable, and the per-vertex
// failure probability δ = 0.05 makes a >k-wide systematic violation
// astronomically unlikely to have been baked in.
func TestTopKErrorBounds(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 12, 7)
	exact := ego.ComputeAll(g)
	for _, eps := range []float64{0.02, 0.1} {
		res, st := TopK(g, 25, Options{Eps: eps, Seed: 42})
		if st.Sampled == 0 {
			t.Fatalf("eps=%v: estimator never sampled (max degree %d)", eps, g.MaxDegree())
		}
		if st.EpsAchieved > eps+1e-12 {
			t.Fatalf("eps=%v: achieved %v", eps, st.EpsAchieved)
		}
		bad := 0
		for _, r := range res {
			tol := eps * ego.StaticUB(g.Degree(r.V))
			if math.Abs(r.CB-exact[r.V]) > tol+1e-9 {
				bad++
			}
		}
		if bad > 0 {
			t.Fatalf("eps=%v: %d/%d returned estimates outside ε·ub", eps, bad, len(res))
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
