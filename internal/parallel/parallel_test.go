package parallel

import (
	"math"
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
// against the sequential kernel and the sequential evidence engine on a
// spread of generator families and thread counts. Every engine folds the
// same integer histogram in the same order, so scores compare with ==, not
// a tolerance; the evidence maps — which the Maintainer takes ownership of —
// must hold the same (pair, count) entries as ego.ComputeAllWithMaps, since
// both enumerate an edge's pairs through ego.NonAdjacentPairs.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(400, 1600, 3),
		gen.BarabasiAlbert(400, 4, 4),
		gen.ChungLu(400, 2.1, 8, 100, 5),
		gen.Affiliation(400, 150, 6, 1, 6),
	}
	for gi, g := range graphs {
		want := ego.ComputeAll(g)
		_, wantMaps := ego.ComputeAllWithMaps(g)
		for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
			for _, threads := range []int{1, 2, 3, 8} {
				got, gotMaps, _ := ComputeAllWithMaps(g, threads, strat)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("graph %d %v t=%d: CB(%d) = %v, want %v",
							gi, strat, threads, v, got[v], want[v])
					}
					if !sameEvidence(gotMaps[v], wantMaps[v]) {
						t.Fatalf("graph %d %v t=%d: evidence map of %d differs from the sequential engine's",
							gi, strat, threads, v)
					}
				}
			}
		}
	}
}

// sameEvidence reports whether two evidence maps hold the same entries; a
// nil map is an empty one (a vertex that accumulated no evidence).
func sameEvidence(a, b *pairmap.Map) bool {
	if a == nil || b == nil {
		return (a == nil || a.Len() == 0) && (b == nil || b.Len() == 0)
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
