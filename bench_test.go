// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation section, driven by the internal/bench harness on quick grids
// (use cmd/benchtab -full for the paper's full parameter grids), plus
// micro-benchmarks for the core kernels. Dataset sizes multiply with
// EGOBW_SCALE.
package egobw_test

import (
	"io"
	"testing"

	egobw "repro"
	"repro/internal/bench"
)

func quietCfg() bench.Config { return bench.Quick(io.Discard) }

// BenchmarkTable1DatasetStats regenerates Table I (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(quietCfg())
	}
}

// BenchmarkTable2ExactComputations regenerates Table II (vertices computed
// exactly by BaseBSearch vs OptBSearch).
func BenchmarkTable2ExactComputations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table2(quietCfg())
		if i == 0 {
			var base, opt int64
			for _, r := range rows {
				base += r.BaseComp
				opt += r.OptComp
			}
			b.ReportMetric(float64(base), "baseComputed")
			b.ReportMetric(float64(opt), "optComputed")
		}
	}
}

// BenchmarkFig6TopKSearch regenerates Fig. 6 (BaseBSearch vs OptBSearch
// runtime across k).
func BenchmarkFig6TopKSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6(quietCfg())
		if i == 0 {
			var ratio float64
			for _, r := range rows {
				ratio += float64(r.BaseTime) / float64(r.OptTime)
			}
			b.ReportMetric(ratio/float64(len(rows)), "base/opt-ratio")
		}
	}
}

// BenchmarkFig7Theta regenerates Fig. 7 (OptBSearch runtime vs θ).
func BenchmarkFig7Theta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7(quietCfg())
	}
}

// BenchmarkFig8Updates regenerates Fig. 8 (local vs lazy update latency).
func BenchmarkFig8Updates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(quietCfg())
	}
}

// BenchmarkFig9Scalability regenerates Fig. 9 (runtime on edge and vertex
// samples).
func BenchmarkFig9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9(quietCfg())
	}
}

// BenchmarkFig10Parallel regenerates Fig. 10 (VertexPEBW vs EdgePEBW across
// thread counts).
func BenchmarkFig10Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig10(quietCfg())
		if i == 0 {
			for _, r := range rows {
				if r.Threads == 16 {
					b.ReportMetric(r.SpeedupBound, r.Strategy.String()+"-bound@16")
				}
			}
		}
	}
}

// BenchmarkFig11Effectiveness regenerates Fig. 11 (TopBW vs TopEBW runtime
// and overlap).
func BenchmarkFig11Effectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig11(quietCfg())
		if i == 0 && len(rows) > 0 {
			var ov float64
			for _, r := range rows {
				ov += r.Overlap
			}
			b.ReportMetric(ov/float64(len(rows))*100, "overlap%")
		}
	}
}

// BenchmarkFig12CaseStudy regenerates Fig. 12 (DB/IR case study).
func BenchmarkFig12CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(quietCfg())
	}
}

// BenchmarkTable3TopScholarsDB regenerates Table III.
func BenchmarkTable3TopScholarsDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table3(quietCfg())
	}
}

// BenchmarkTable4TopScholarsIR regenerates Table IV.
func BenchmarkTable4TopScholarsIR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table4(quietCfg())
	}
}

// ---- micro-benchmarks for the core kernels ----

func benchGraph(b *testing.B) *egobw.Graph {
	b.Helper()
	return egobw.GenerateChungLu(5000, 2.4, 10, 200, 42)
}

// BenchmarkComputeAll measures the sequential all-vertices engine.
func BenchmarkComputeAll(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		egobw.ComputeAll(g)
	}
}

// BenchmarkSingleVertexHub measures one exact CB on the heaviest vertex.
func BenchmarkSingleVertexHub(b *testing.B) {
	g := benchGraph(b)
	hub := int32(0)
	for v := int32(1); v < g.NumVertices(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		egobw.EgoBetweenness(g, hub)
	}
}

// BenchmarkOptBSearchK100 measures the default search at k=100.
func BenchmarkOptBSearchK100(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		egobw.TopK(g, 100)
	}
}

// BenchmarkBaseBSearchK100 measures Algorithm 1 at k=100.
func BenchmarkBaseBSearchK100(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		egobw.TopK(g, 100, egobw.WithBaseSearch())
	}
}

// BenchmarkMaintainerInsertDelete measures one local-update cycle.
func BenchmarkMaintainerInsertDelete(b *testing.B) {
	g := benchGraph(b)
	m := egobw.NewMaintainer(g)
	edges := [][2]int32{{1, 2000}, {3, 3000}, {5, 4000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if err := m.InsertEdge(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
		if err := m.DeleteEdge(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLazyInsertDelete measures one lazy-update cycle at k=50.
func BenchmarkLazyInsertDelete(b *testing.B) {
	g := benchGraph(b)
	lt := egobw.NewLazyTopK(g, 50)
	edges := [][2]int32{{1, 2000}, {3, 3000}, {5, 4000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if err := lt.InsertEdge(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
		if err := lt.DeleteEdge(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBrandes measures the baseline, TopBW on one worker, on a small
// graph (O(nm) dominates quickly).
func BenchmarkBrandes(b *testing.B) {
	g := egobw.GenerateChungLu(1500, 2.4, 8, 100, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		egobw.BetweennessTopK(g, 100, 1)
	}
}
