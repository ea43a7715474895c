package egobw_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	egobw "repro"
	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/paperex"
)

// TestPublicQuickstart exercises the README quickstart path end to end.
func TestPublicQuickstart(t *testing.T) {
	g, err := egobw.NewGraph(int32(paperex.NumVertices), paperex.Edges)
	if err != nil {
		t.Fatal(err)
	}
	top, st := egobw.TopK(g, 5)
	if len(top) != 5 || st.Computed == 0 {
		t.Fatalf("top = %v, stats = %+v", top, st)
	}
	for i, want := range paperex.Top5 {
		if top[i].V != want {
			t.Errorf("rank %d = %d, want %d", i+1, top[i].V, want)
		}
	}
}

func TestPublicOptions(t *testing.T) {
	g := mustPaper(t)
	base, st := egobw.TopK(g, 5, egobw.WithBaseSearch())
	if st.Computed != paperex.BaseSearchComputed {
		t.Errorf("base computed %d, want %d", st.Computed, paperex.BaseSearchComputed)
	}
	opt, _ := egobw.TopK(g, 5, egobw.WithTheta(1.3))
	for i := range base {
		if math.Abs(base[i].CB-opt[i].CB) > 1e-9 {
			t.Errorf("rank %d: base %v, opt %v", i, base[i].CB, opt[i].CB)
		}
	}
	// k ≤ 0 selects nothing and computes nothing, under either search.
	for _, opts := range [][]egobw.Option{nil, {egobw.WithBaseSearch()}} {
		if top, st := egobw.TopK(g, 0, opts...); len(top) != 0 || st.Computed != 0 {
			t.Errorf("TopK(g, 0) = %v, %+v; want no result, nothing computed", top, st)
		}
	}
}

// TestPublicHugeK: a k beyond n selects what k = n does — it is never the
// size of a reservation, so k = 1<<40 answers on a 5-vertex graph instead
// of exhausting memory — under either search, the Maintainer, LazyTopK and
// BetweennessTopK.
func TestPublicHugeK(t *testing.T) {
	g, err := egobw.NewGraph(5, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	n := int(g.NumVertices())
	tops := map[string]func(k int) []egobw.Result{
		"TopK":            func(k int) []egobw.Result { res, _ := egobw.TopK(g, k); return res },
		"TopK/base":       func(k int) []egobw.Result { res, _ := egobw.TopK(g, k, egobw.WithBaseSearch()); return res },
		"Maintainer.TopK": egobw.NewMaintainer(g).TopK,
		"LazyTopK":        func(k int) []egobw.Result { return egobw.NewLazyTopK(g, k).Results() },
		"BetweennessTopK": func(k int) []egobw.Result { return egobw.BetweennessTopK(g, k, 1) },
	}
	for name, top := range tops {
		want := top(n)
		if len(want) != n {
			t.Fatalf("%s(k=n=%d) returns %d results", name, n, len(want))
		}
		for _, k := range []int{n, n + 1, 1 << 40} {
			got := top(k)
			if len(got) != len(want) {
				t.Fatalf("%s(k=%d) = %v, k=n gives %v", name, k, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s(k=%d) = %v, k=n gives %v", name, k, got, want)
				}
			}
		}
	}
}

func TestPublicComputeVariants(t *testing.T) {
	g := mustPaper(t)
	all := egobw.ComputeAll(g)
	par, pst := egobw.ComputeAllParallel(g, 2, egobw.EdgePEBW)
	if pst.Threads != 2 {
		t.Fatalf("stats = %+v", pst)
	}
	for v := range all {
		if math.Abs(all[v]-par[v]) > 1e-9 {
			t.Errorf("parallel CB(%d) = %v, want %v", v, par[v], all[v])
		}
		if single := egobw.EgoBetweenness(g, int32(v)); math.Abs(single-all[v]) > 1e-9 {
			t.Errorf("single CB(%d) = %v, want %v", v, single, all[v])
		}
	}
}

func TestPublicMaintainers(t *testing.T) {
	m := egobw.NewMaintainer(mustPaper(t))
	if err := m.InsertEdge(paperex.I, paperex.K); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.CB(paperex.I)-10.5) > 1e-9 {
		t.Errorf("CB(i) = %v, want 10.5", m.CB(paperex.I))
	}
	lt := egobw.NewLazyTopK(mustPaper(t), 1)
	if err := lt.InsertEdge(paperex.I, paperex.K); err != nil {
		t.Fatal(err)
	}
	if res := lt.Results(); res[0].V != paperex.I {
		t.Errorf("lazy top-1 = %v, want i", res)
	}
	// k ≤ 0 keeps an empty result set, as TopK(g, 0) returns none, while
	// updates still reach the maintained graph.
	for _, k := range []int{0, -3} {
		lt := egobw.NewLazyTopK(mustPaper(t), k)
		if err := lt.InsertEdge(paperex.I, paperex.K); err != nil {
			t.Fatal(err)
		}
		if res := lt.Results(); lt.K() != 0 || len(res) != 0 || lt.InsertEdge(paperex.I, paperex.K) == nil {
			t.Errorf("NewLazyTopK(g, %d): K() = %d, Results() = %v; want 0, none, and the edge inserted", k, lt.K(), res)
		}
	}
}

// TestKernelFacadeMatchesSequential: the facade's all-vertices calls sweep
// on up to GOMAXPROCS cores and land on the sequential reference
// ego.ComputeAll bit for bit — ComputeAll's scores, a Maintainer's and a
// LazyTopK's results — and leave no goroutine behind.
func TestKernelFacadeMatchesSequential(t *testing.T) {
	star := make([][2]int32, 40)
	for i := range star {
		star[i] = [2]int32{0, int32(i + 1)}
	}
	for name, g := range map[string]*egobw.Graph{
		"collab":   egobw.GenerateAffiliation(1200, 600, 5.5, 1, 5),
		"powerlaw": egobw.GenerateChungLu(1500, 2.2, 5.3, 120, 5),
		"star":     graph.MustFromEdges(-1, star),
		"empty":    graph.MustFromEdges(0, nil),
	} {
		want := ego.ComputeAll(g)
		base := runtime.NumGoroutine()
		settled := func(call string) {
			t.Helper()
			for i := 0; runtime.NumGoroutine() > base; i++ {
				if i == 100 {
					t.Fatalf("%s: %s left %d goroutines, %d before", name, call, runtime.NumGoroutine(), base)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		same := func(call string, got []float64) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %s has %d scores, want %d", name, call, len(got), len(want))
			}
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s: %s CB(%d) = %v, sequential %v", name, call, v, got[v], want[v])
				}
			}
		}
		same("ComputeAll", egobw.ComputeAll(g))
		settled("ComputeAll")
		same("NewMaintainer", egobw.NewMaintainer(g).All())
		settled("NewMaintainer")
		res, top := egobw.NewLazyTopK(g, 10).Results(), ego.TopKOfScores(want, 10)
		settled("NewLazyTopK")
		if len(res) != len(top) {
			t.Fatalf("%s: lazy top-10 has %d results, sequential %d", name, len(res), len(top))
		}
		for i := range top {
			if res[i].V != top[i].V || math.Float64bits(res[i].CB) != math.Float64bits(top[i].CB) {
				t.Fatalf("%s: lazy rank %d = %+v, sequential %+v", name, i, res[i], top[i])
			}
		}
	}
}

func TestPublicBetweennessAndOverlap(t *testing.T) {
	g := egobw.GenerateBA(300, 3, 5)
	ebw, _ := egobw.TopK(g, 20)
	bw := egobw.BetweennessTopK(g, 20, 2)
	ov := egobw.Overlap(ebw, bw)
	if ov < 0.3 {
		t.Errorf("EBW/BW top-20 overlap = %v; expected substantial agreement", ov)
	}
}

func TestPublicIO(t *testing.T) {
	g := mustPaper(t)
	var buf bytes.Buffer
	if err := egobw.SaveEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := egobw.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("round trip lost edges")
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("not numbers\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := egobw.LoadEdgeListFile(bad); err == nil {
		t.Fatal("want parse error")
	}
}

func TestPublicLoadEdgeListFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := egobw.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if _, err := egobw.LoadEdgeListFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestPublicGeneratorsAndDatasets(t *testing.T) {
	if _, err := egobw.LoadDataset("ir"); err != nil {
		t.Fatal(err)
	}
	if _, err := egobw.LoadDataset("bogus"); err == nil {
		t.Fatal("want unknown-dataset error")
	}
	for name, g := range map[string]*egobw.Graph{
		"er": egobw.GenerateER(100, 200, 1),
		"ba": egobw.GenerateBA(100, 2, 1),
		"cl": egobw.GenerateChungLu(100, 2.5, 5, 0, 1),
		"ws": egobw.GenerateWS(100, 4, 0.1, 1),
		"af": egobw.GenerateAffiliation(100, 40, 4, 1, 1),
	} {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicStats(t *testing.T) {
	st := egobw.Stats(mustPaper(t))
	if st.N != int32(paperex.NumVertices) || st.M != 30 {
		t.Fatalf("stats = %+v", st)
	}
}

func mustPaper(t *testing.T) *egobw.Graph {
	t.Helper()
	g, err := egobw.NewGraph(int32(paperex.NumVertices), paperex.Edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
