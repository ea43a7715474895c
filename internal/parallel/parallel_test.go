package parallel

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pairmap"
	"repro/internal/paperex"
)

// TestParallelMatchesSequentialPaperExample checks both strategies against
// the sequential result on the Fig. 1 graph, bit for bit, and that result
// against the golden values (rationals like 41/6, hence the tolerance).
func TestParallelMatchesSequentialPaperExample(t *testing.T) {
	g := paperex.New()
	seq := ego.ComputeAll(g)
	for v, want := range paperex.CB {
		if math.Abs(seq[v]-want) > 1e-9 {
			t.Errorf("sequential CB(%s) = %v, want %v", paperex.Names[v], seq[v], want)
		}
	}
	for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
		for _, threads := range []int{1, 2, 4} {
			cb, st := ComputeAll(g, threads, strat)
			if st.Threads != threads || st.Strategy != strat {
				t.Errorf("%v t=%d: stats mismatch %+v", strat, threads, st)
			}
			for v, want := range seq {
				if cb[v] != want {
					t.Errorf("%v t=%d: CB(%s) = %v, want %v",
						strat, threads, paperex.Names[v], cb[v], want)
				}
			}
		}
	}
}

// TestParallelMatchesSequentialRandom cross-validates both strategies
// against the sequential kernel on a spread of generator families and thread
// counts. The edge pass and the kernel fold the same integer histogram in
// the same order, so scores compare with ==, not a tolerance.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(400, 1600, 3),
		gen.BarabasiAlbert(400, 4, 4),
		gen.ChungLu(400, 2.1, 8, 100, 5),
		gen.Affiliation(400, 150, 6, 1, 6),
	}
	for gi, g := range graphs {
		want := ego.ComputeAll(g)
		for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
			for _, threads := range []int{1, 2, 3, 8} {
				got, _ := ComputeAll(g, threads, strat)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("graph %d %v t=%d: CB(%d) = %v, want %v",
							gi, strat, threads, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// assertKernelMaps is the maps differential: the evidence maps the dense
// kernel emits for each view (ego.ComputeAllWithMaps — what the Maintainer
// takes ownership of) must equal the maps the paper's edge pass fills on
// frozen, a CSR of the same adjacency, at 1 and 3 workers under both
// strategies — same key set, same values, nil for the same vertices — and
// score to the same bits.
func assertKernelMaps(t *testing.T, name string, frozen *graph.Graph, views map[string]graph.View) {
	t.Helper()
	type emitted struct {
		cb   []float64
		maps []*pairmap.Map
	}
	kernel := map[string]emitted{}
	for vn, view := range views {
		cb, maps := ego.ComputeAllWithMaps(view)
		kernel[vn] = emitted{cb, maps}
	}
	for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
		for _, threads := range []int{1, 3} {
			edge, _ := edgePass(frozen, threads, strat)
			for vn, k := range kernel {
				for v := range edge {
					if !sameEvidence(k.maps[v], edge[v]) {
						t.Fatalf("%s/%s %v t=%d: kernel map of vertex %d differs from the edge pass's", name, vn, strat, threads, v)
					}
					if got := ego.ScoreEvidence(frozen.Degree(int32(v)), edge[v]); got != k.cb[v] {
						t.Fatalf("%s/%s %v t=%d: CB(%d): edge pass %v, kernel %v", name, vn, strat, threads, v, got, k.cb[v])
					}
				}
			}
		}
	}
}

// TestKernelMapsMatchEdgePass runs the maps differential on the paper's
// example and the benchmark's two shapes at smoke scale: on the frozen
// graph, then after each of four rounds of random churn on the DynGraph and
// on the overlay chain those rounds publish.
func TestKernelMapsMatchEdgePass(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 7),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 7),
		"paper":    paperex.New(),
	}
	for name, g := range shapes {
		assertKernelMaps(t, name, g, map[string]graph.View{"frozen": g})
		d := graph.DynFromGraph(g)
		rng := rand.New(rand.NewPCG(11, 13))
		var overlay graph.View = g
		for round := 0; round < 4; round++ {
			n := d.NumVertices()
			for i := 0; i < 300; i++ {
				u, v := rng.Int32N(n), rng.Int32N(n)
				if u == v {
					continue
				}
				if d.HasEdge(u, v) {
					_ = d.DeleteEdge(u, v) // present: cannot fail
				} else {
					_ = d.InsertEdge(u, v) // absent, distinct, in range: cannot fail
				}
			}
			overlay = d.FreezeOverlay(overlay)
			assertKernelMaps(t, name, d.Freeze(1), map[string]graph.View{"dyn": d, "overlay": overlay})
		}
	}
}

// sameEvidence reports whether two evidence maps hold the same entries and
// are nil together (a vertex that accumulated no evidence has no map).
func sameEvidence(a, b *pairmap.Map) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Iterate(func(k uint64, val int32) bool {
		other, ok := b.Get(k)
		same = ok && other == val
		return same
	})
	return same
}

// TestParallelDefaultThreads exercises the t ≤ 0 GOMAXPROCS path.
func TestParallelDefaultThreads(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 9)
	cb, st := ComputeAll(g, 0, EdgePEBW)
	if st.Threads < 1 {
		t.Fatalf("threads = %d", st.Threads)
	}
	want := ego.ComputeAll(g)
	for v := range want {
		if cb[v] != want[v] {
			t.Fatalf("CB(%d) mismatch", v)
		}
	}
}

// TestEdgeBalancesBetterThanVertex verifies the paper's Section V claim in
// its machine-independent form: on a skewed power-law graph, VertexPEBW's
// heaviest indivisible work unit (a hub vertex) dwarfs EdgePEBW's heaviest
// unit (a fixed edge chunk), so the achievable speedup bound of EdgePEBW is
// at least that of VertexPEBW.
func TestEdgeBalancesBetterThanVertex(t *testing.T) {
	// Heavy skew: a few giant hubs own most oriented edges.
	g := gen.ChungLu(3000, 1.9, 10, 800, 7)
	const threads = 8
	_, stV := ComputeAll(g, threads, VertexPEBW)
	_, stE := ComputeAll(g, threads, EdgePEBW)
	if stV.TotalWork != stE.TotalWork {
		t.Fatalf("total work differs: %d vs %d", stV.TotalWork, stE.TotalWork)
	}
	if stE.MaxUnitWork > stV.MaxUnitWork {
		t.Errorf("EdgePEBW max unit %d should not exceed VertexPEBW %d",
			stE.MaxUnitWork, stV.MaxUnitWork)
	}
	if stE.SpeedupBound(16) < stV.SpeedupBound(16) {
		t.Errorf("EdgePEBW speedup bound %.2f below VertexPEBW %.2f",
			stE.SpeedupBound(16), stV.SpeedupBound(16))
	}
}

// TestWorkConservation: total work is strategy- and thread-invariant (each
// edge processed exactly once by exactly one worker).
func TestWorkConservation(t *testing.T) {
	g := gen.BarabasiAlbert(600, 3, 11)
	var ref int64 = -1
	for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
		for _, threads := range []int{1, 2, 5} {
			_, st := ComputeAll(g, threads, strat)
			var total int64
			for _, w := range st.WorkPerWorker {
				total += w
			}
			if ref < 0 {
				ref = total
			} else if total != ref {
				t.Errorf("%v t=%d: total work %d, want %d", strat, threads, total, ref)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if VertexPEBW.String() != "VertexPEBW" || EdgePEBW.String() != "EdgePEBW" {
		t.Fatal("strategy names wrong")
	}
}

func TestImbalanceDegenerate(t *testing.T) {
	if (Stats{}).Imbalance() != 1 {
		t.Fatal("empty stats imbalance must be 1")
	}
	s := Stats{WorkPerWorker: []int64{0, 0}}
	if s.Imbalance() != 1 {
		t.Fatal("zero work imbalance must be 1")
	}
}
