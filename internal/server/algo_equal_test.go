package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestExactAlgosByteIdentical: on one snapshot the exact strategies return
// the same encoded result list, ties at the k-th rank included — on the
// frozen snapshot of a fresh graph, on overlay snapshots and on a compacted
// one, in both modes.
//
// algo=opt and algo=base score every returned vertex with the same kernel,
// and algo=scores reads the maintained vector, whose every entry is its
// connector-count histogram folded by the kernel's fold — so all three are
// held to byte equality everywhere, after score-changing batches too. In
// ModeLazy algo=scores searches the published vector, recomputing the stale
// bounds it cannot rule out: it is held to the same bytes, and every read —
// top-k at every k and each vertex — to the same stream served in
// ModeLocal and to ego.TopKExact on the snapshot's view.
func TestExactAlgosByteIdentical(t *testing.T) {
	for mode, base := range map[string]*graph.Graph{
		ModeLocal: gen.Affiliation(300, 150, 5.5, 1, 29),
		ModeLazy:  gen.BarabasiAlbert(80, 3, 29), // small integer scores: ties at the k-th rank
	} {
		t.Run(mode, func(t *testing.T) {
			reg := addOverlayGraph(t, base, mode, 0, 64)
			ref := addOverlayGraph(t, base, ModeLocal, 0, 64) // ModeLocal under the same stream
			check := func(stage string) {
				t.Helper()
				info, err := reg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range exactKs(info.N) {
					opt, err := reg.topK("g", k, AlgoOpt)
					if err != nil {
						t.Fatalf("%s k=%d algo=opt: %v", stage, k, err)
					}
					want := encodeJSON(opt.Results)
					for _, algo := range []string{AlgoBase, AlgoScores, AlgoAuto} {
						res, err := reg.topK("g", k, algo)
						if err != nil {
							t.Fatalf("%s k=%d algo=%s: %v", stage, k, algo, err)
						}
						if got := encodeJSON(res.Results); !bytes.Equal(got, want) {
							t.Fatalf("%s k=%d: algo=%s returns\n%s\nalgo=opt returns\n%s", stage, k, algo, got, want)
						}
					}
					local, err := ref.topK("g", k, AlgoScores)
					if err != nil {
						t.Fatal(err)
					}
					if got := encodeJSON(local.Results); !bytes.Equal(got, want) {
						t.Fatalf("%s k=%d: ModeLocal serves\n%s\nthis mode\n%s", stage, k, got, want)
					}
				}
				e, err := reg.get("g")
				if err != nil {
					t.Fatal(err)
				}
				assertServesExact(t, reg, "g", e.snap.Load().view)
			}
			overlayDepth := func() int {
				info, err := reg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				return info.OverlayDepth
			}
			apply := func(edges [][2]int32, insert bool) {
				t.Helper()
				for _, r := range []*Registry{reg, ref} {
					if _, err := r.applyEdges("g", edges, insert); err != nil {
						t.Fatal(err)
					}
				}
			}
			check("frozen")

			n := base.NumVertices()
			apply([][2]int32{{n, n + 1}}, true)
			if overlayDepth() != 1 {
				t.Fatalf("overlay depth %d after one batch, want 1", overlayDepth())
			}
			check("score-neutral overlay")

			rng := rand.New(rand.NewPCG(29, 0xA160))
			mirror := graph.DynFromGraph(base)
			for i, sb := range makeScript(rng, mirror, 10) {
				apply(sb.edges, sb.insert)
				check(fmt.Sprintf("batch %d (overlay depth %d)", i, overlayDepth()))
			}
			if overlayDepth() < 2 {
				t.Fatalf("overlay depth %d after the script — the test lost its subject", overlayDepth())
			}
			e, err := reg.get("g")
			if err != nil {
				t.Fatal(err)
			}
			e.mu.Lock()
			e.fullGraphLocked()
			e.mu.Unlock()
			if overlayDepth() != 0 {
				t.Fatalf("overlay depth %d after a compaction", overlayDepth())
			}
			check("compacted")
		})
	}
}

// TestExactSearchAccounting: algo=base is an alias of algo=opt, so the two
// share one cache entry per (snapshot, k) — whichever asks first runs the
// one OptBSearch and the other hits. A miss adds exactly the library
// OptBSearch's SearchStats for that snapshot to the entry's exact_*
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
	_, st10 := ego.OptBSearch(g, 10, ego.DefaultTheta)
	_, st25 := ego.OptBSearch(g, 25, ego.DefaultTheta)
	var want GraphInfo
	for _, q := range []struct {
		algos [2]string // the miss, then the other name of the same search
		k     int
		st    ego.SearchStats
	}{{[2]string{AlgoOpt, AlgoBase}, 10, st10}, {[2]string{AlgoBase, AlgoOpt}, 25, st25}} {
		for i, algo := range q.algos {
			hit := i == 1
			res, err := reg.TopKQ("g", TopKQuery{K: q.k, Algo: algo})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached != hit || res.Algo != AlgoOpt {
				t.Fatalf("algo=%s k=%d: cached=%v algo %q, want cached=%v algo %q", algo, q.k, res.Cached, res.Algo, hit, AlgoOpt)
			}
			if !hit {
				want.ExactQueries++
				want.ExactComputed += q.st.Computed
				want.ExactPruned += q.st.Pruned
			}
			gi := info()
			if gi.ExactQueries != want.ExactQueries || gi.ExactComputed != want.ExactComputed || gi.ExactPruned != want.ExactPruned {
				t.Fatalf("after algo=%s k=%d (hit=%v): exact queries/computed/pruned = %d/%d/%d, want %d/%d/%d",
					algo, q.k, hit, gi.ExactQueries, gi.ExactComputed, gi.ExactPruned,
					want.ExactQueries, want.ExactComputed, want.ExactPruned)
			}
		}
	}
}

// TestUnknownAlgoStopsBeforeCache: an algo outside auto/scores/opt/base/approx
// — the retired lazy among them — answers 400 before the cache is consulted,
// so neither cache counter moves.
func TestUnknownAlgoStopsBeforeCache(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	reg := s.Registry()
	defer reg.Close()
	if _, err := reg.Add("g", gen.BarabasiAlbert(200, 3, 5), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.topK("g", 5, AlgoOpt); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"lazy", "nope", "OPT"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/graphs/g/topk?k=5&algo="+algo, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("algo=%s: status %d, want 400", algo, rec.Code)
		}
	}
	st, err := reg.Stats("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("cache hits/misses %d/%d after one opt query and three unknown algos, want 0/1", st.CacheHits, st.CacheMisses)
	}
}
