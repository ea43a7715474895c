package parallel

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nbr"
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
// against the sequential kernel on a spread of generator families, and on a
// hub graph whose hub ego EdgePEBW splits, at several thread counts. A
// split ego's chunks add into one integer histogram that is folded once, so
// scores compare with ==, not a tolerance.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(400, 1600, 3),
		gen.BarabasiAlbert(400, 4, 4),
		gen.ChungLu(400, 2.1, 8, 100, 5),
		gen.Affiliation(400, 150, 6, 1, 6),
		hubOfCliques(t, 60, 4),
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

// hubOfCliques is vertex 0 joined to every vertex of c disjoint cliques of
// size k: the hub's ego holds 1/(k+1) of the kernel's work, far above the
// split share at two or more workers, so EdgePEBW cuts it into chunks.
func hubOfCliques(t *testing.T, c, k int32) *graph.Graph {
	t.Helper()
	var edges [][2]int32
	for q := int32(0); q < c; q++ {
		for i := int32(0); i < k; i++ {
			a := 1 + q*k + i
			edges = append(edges, [2]int32{0, a})
			for j := i + 1; j < k; j++ {
				edges = append(edges, [2]int32{a, 1 + q*k + j})
			}
		}
	}
	g, err := graph.FromEdges(-1, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSweepSplitsHubEgos: on the hub graph EdgePEBW really splits the hub
// ego at two or more workers — its heaviest unit is strictly lighter than
// VertexPEBW's, the work totals agree — and the scores are still the
// sequential kernel's bits.
func TestSweepSplitsHubEgos(t *testing.T) {
	g := hubOfCliques(t, 60, 4)
	want := ego.ComputeAll(g)
	for _, threads := range []int{1, 2, 3, 8} {
		cbV, stV := ComputeAll(g, threads, VertexPEBW)
		cbE, stE := ComputeAll(g, threads, EdgePEBW)
		for v := range want {
			if cbV[v] != want[v] || cbE[v] != want[v] {
				t.Fatalf("t=%d: CB(%d): vertex %v, edge %v, want %v", threads, v, cbV[v], cbE[v], want[v])
			}
		}
		if stV.TotalWork != stE.TotalWork {
			t.Fatalf("t=%d: total work differs: %d vs %d", threads, stV.TotalWork, stE.TotalWork)
		}
		if threads >= 2 && stE.MaxUnitWork >= stV.MaxUnitWork {
			t.Errorf("t=%d: EdgePEBW max unit %d, want below VertexPEBW's %d", threads, stE.MaxUnitWork, stV.MaxUnitWork)
		}
	}
}

// edgeOracle is the paper's once-per-edge evidence pass, run sequentially as
// the independent reference for the kernel's maps: every undirected edge
// (a, b) counts one adjacent pair for every common neighbor and credits one
// connector to every non-adjacent pair of N(a) ∩ N(b) in the maps of a and
// b. A credit (center, pair, connector) is produced only by the edge
// (center, connector), so once every edge is processed each map and count
// is exact; maps[v] is nil when v accumulated no connector.
func edgeOracle(g *graph.Graph) (maps []*pairmap.Map, adjacent []int64) {
	maps, adjacent = make([]*pairmap.Map, g.NumVertices()), make([]int64, g.NumVertices())
	mapOf := func(v int32) *pairmap.Map {
		if maps[v] == nil {
			maps[v] = pairmap.NewWithCapacity(int(g.Degree(v)))
		}
		return maps[v]
	}
	var comm []int32
	g.EachEdge(func(a, b int32) bool {
		comm = nbr.IntersectInto(comm[:0], g.Neighbors(a), g.Neighbors(b))
		for i, p := range comm {
			adjacent[p]++
			for _, q := range comm[i+1:] {
				if !slices.Contains(g.Neighbors(p), q) {
					mapOf(a).Add(pairmap.Key(p, q), 1)
					mapOf(b).Add(pairmap.Key(p, q), 1)
				}
			}
		}
		return true
	})
	return maps, adjacent
}

// assertKernelMaps is the maps differential: the evidence maps the dense
// kernel emits for each view (ego.ComputeAllWithMaps — what the Maintainer
// takes ownership of) must equal the maps the paper's edge pass fills on
// frozen, a CSR of the same adjacency — same key set, same values, nil for
// the same vertices — and score to the same bits.
func assertKernelMaps(t *testing.T, name string, frozen *graph.Graph, views map[string]graph.View) {
	t.Helper()
	edge, adjacent := edgeOracle(frozen)
	for vn, view := range views {
		cb, maps := ego.ComputeAllWithMaps(view)
		for v := range edge {
			if !sameEvidence(maps[v], edge[v]) {
				t.Fatalf("%s/%s: kernel map of vertex %d differs from the edge pass's", name, vn, v)
			}
			if got := ego.ScoreEvidence(frozen.Degree(int32(v)), adjacent[v], edge[v]); got != cb[v] {
				t.Fatalf("%s/%s: CB(%d): edge pass %v, kernel %v", name, vn, v, got, cb[v])
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
	return within(a, b) && within(b, a)
}

// within reports whether every entry of a is also an entry of b.
func within(a, b *pairmap.Map) bool {
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
// heaviest indivisible work unit (a hub ego) is strictly heavier than
// EdgePEBW's heaviest unit (a chunk of a split hub ego, or a light ego), so
// the achievable speedup bound of EdgePEBW is at least that of VertexPEBW.
func TestEdgeBalancesBetterThanVertex(t *testing.T) {
	// Heavy skew: a few giant hubs own most oriented edges.
	g := gen.ChungLu(3000, 1.9, 10, 800, 7)
	const threads = 8
	_, stV := ComputeAll(g, threads, VertexPEBW)
	_, stE := ComputeAll(g, threads, EdgePEBW)
	if stV.TotalWork != stE.TotalWork {
		t.Fatalf("total work differs: %d vs %d", stV.TotalWork, stE.TotalWork)
	}
	if stE.MaxUnitWork >= stV.MaxUnitWork {
		t.Errorf("EdgePEBW max unit %d should be below VertexPEBW %d",
			stE.MaxUnitWork, stV.MaxUnitWork)
	}
	if stE.SpeedupBound(16) < stV.SpeedupBound(16) {
		t.Errorf("EdgePEBW speedup bound %.2f below VertexPEBW %.2f",
			stE.SpeedupBound(16), stV.SpeedupBound(16))
	}
}

// TestWorkConservation: total work is strategy- and thread-invariant — the
// kernel steps ego.Scratch.Price counts per ego, however the egos are cut
// into chunks — and agrees with TotalWork.
func TestWorkConservation(t *testing.T) {
	for gi, g := range []*graph.Graph{gen.BarabasiAlbert(600, 3, 11), hubOfCliques(t, 60, 4)} {
		var ref int64 = -1
		for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
			for _, threads := range []int{1, 2, 5} {
				_, st := ComputeAll(g, threads, strat)
				var total int64
				for _, w := range st.WorkPerWorker {
					total += w
				}
				if total != st.TotalWork {
					t.Errorf("graph %d %v t=%d: per-worker work sums to %d, TotalWork %d", gi, strat, threads, total, st.TotalWork)
				}
				if ref < 0 {
					ref = total
				} else if total != ref {
					t.Errorf("graph %d %v t=%d: total work %d, want %d", gi, strat, threads, total, ref)
				}
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if VertexPEBW.String() != "VertexPEBW" || EdgePEBW.String() != "EdgePEBW" {
		t.Fatal("strategy names wrong")
	}
}
