package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestExactAlgosByteIdentical: on one snapshot the exact strategies return
// the same encoded result list, ties at the k-th rank included — on the
// frozen snapshot of a fresh graph and on overlay snapshots, in both modes.
//
// algo=opt and algo=base score every returned vertex with the same kernel,
// and algo=scores reads the maintained vector, whose every entry is its
// connector-count histogram folded by the kernel's fold — so all three are
// held to byte equality everywhere, after score-changing batches too. In
// ModeLazy algo=lazy serves k ≤ lazy k from the LazyTopK set, which keeps
// the k first vertices under the same (score desc, id asc) order: it is held
// to the same bytes.
func TestExactAlgosByteIdentical(t *testing.T) {
	const lazyK = 50
	for mode, base := range map[string]*graph.Graph{
		ModeLocal: gen.Affiliation(300, 150, 5.5, 1, 29),
		ModeLazy:  gen.BarabasiAlbert(80, 3, 29), // small integer scores: ties at rank lazyK
	} {
		t.Run(mode, func(t *testing.T) {
			reg := addOverlayGraph(t, base, mode, lazyK, 64)
			check := func(stage string) {
				t.Helper()
				info, err := reg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 4, 10, lazyK, int(info.N) / 2, int(info.N)} {
					algos := []string{AlgoBase, AlgoScores}
					if mode == ModeLazy {
						algos = []string{AlgoBase}
						if k <= lazyK {
							algos = append(algos, AlgoLazy)
						}
					}
					opt, err := reg.topK("g", k, AlgoOpt)
					if err != nil {
						t.Fatalf("%s k=%d algo=opt: %v", stage, k, err)
					}
					want := encodeJSON(opt.Results)
					for _, algo := range algos {
						res, err := reg.topK("g", k, algo)
						if err != nil {
							t.Fatalf("%s k=%d algo=%s: %v", stage, k, algo, err)
						}
						if got := encodeJSON(res.Results); !bytes.Equal(got, want) {
							t.Fatalf("%s k=%d: algo=%s returns\n%s\nalgo=opt returns\n%s", stage, k, algo, got, want)
						}
					}
				}
			}
			overlayDepth := func() int {
				info, err := reg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				return info.OverlayDepth
			}
			check("frozen")

			n := base.NumVertices()
			if _, err := reg.applyEdges("g", [][2]int32{{n, n + 1}}, true); err != nil {
				t.Fatal(err)
			}
			if overlayDepth() != 1 {
				t.Fatalf("overlay depth %d after one batch, want 1", overlayDepth())
			}
			check("score-neutral overlay")

			rng := rand.New(rand.NewPCG(29, 0xA160))
			mirror := graph.DynFromGraph(base)
			for i, sb := range makeScript(rng, mirror, 10) {
				if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("batch %d (overlay depth %d)", i, overlayDepth()))
			}
			if overlayDepth() < 2 {
				t.Fatalf("overlay depth %d after the script — the test lost its subject", overlayDepth())
			}
		})
	}
}

// TestExactSearchAccounting: an algo=opt or algo=base miss adds exactly the
// library search's SearchStats for that snapshot to the entry's exact_*
// counters, and a cache hit adds nothing.
func TestExactSearchAccounting(t *testing.T) {
	g := gen.ChungLu(600, 2.2, 5.3, 60, 3)
	reg := NewRegistry()
	if _, err := reg.Add("g", g, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	info := func() GraphInfo {
		t.Helper()
		gi, err := reg.Info("g")
		if err != nil {
			t.Fatal(err)
		}
		return gi
	}
	if gi := info(); gi.ExactQueries != 0 || gi.ExactComputed != 0 || gi.ExactPruned != 0 {
		t.Fatalf("fresh entry counts exact queries: %+v", gi)
	}
	if body := encodeJSON(info()); bytes.Contains(body, []byte("exact_")) {
		t.Fatalf("fresh entry's info names an exact counter: %s", body)
	}
	_, optSt := ego.OptBSearch(g, 10, ego.DefaultTheta)
	_, baseSt := ego.BaseBSearch(g, 25)
	var want GraphInfo
	for _, q := range []struct {
		algo string
		k    int
		st   ego.SearchStats
	}{{AlgoOpt, 10, optSt}, {AlgoBase, 25, baseSt}} {
		for _, hit := range []bool{false, true} {
			res, err := reg.TopKQ("g", TopKQuery{K: q.k, Algo: q.algo})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached != hit {
				t.Fatalf("algo=%s k=%d: cached=%v, want %v", q.algo, q.k, res.Cached, hit)
			}
			if !hit {
				want.ExactQueries++
				want.ExactComputed += q.st.Computed
				want.ExactPruned += q.st.Pruned
			}
			gi := info()
			if gi.ExactQueries != want.ExactQueries || gi.ExactComputed != want.ExactComputed || gi.ExactPruned != want.ExactPruned {
				t.Fatalf("after algo=%s k=%d (hit=%v): exact queries/computed/pruned = %d/%d/%d, want %d/%d/%d",
					q.algo, q.k, hit, gi.ExactQueries, gi.ExactComputed, gi.ExactPruned,
					want.ExactQueries, want.ExactComputed, want.ExactPruned)
			}
		}
	}
}
