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

// TestExactAlgosByteIdentical: on one snapshot every exact spelling —
// scores, auto, and opt and base, its aliases — returns the encoded result
// list the library OptBSearch returns on the snapshot's view, ties at the
// k-th rank included: on the frozen snapshot of a fresh graph, on overlay
// snapshots and on a compacted one, in both modes.
//
// algo=scores reads the maintained vector, whose every entry is its
// connector-count histogram folded by the kernel's fold, so it is held to
// the search's bytes everywhere, after score-changing batches too. In
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
				e, err := reg.get("g")
				if err != nil {
					t.Fatal(err)
				}
				view := e.snap.Load().view
				for _, k := range exactKs(view.NumVertices()) {
					opt, _ := ego.OptBSearch(view, k, ego.DefaultTheta)
					want := encodeJSON(opt)
					for _, algo := range []string{AlgoOpt, AlgoBase, AlgoScores, AlgoAuto} {
						res, err := reg.topK("g", k, algo)
						if err != nil {
							t.Fatalf("%s k=%d algo=%s: %v", stage, k, algo, err)
						}
						if got := encodeJSON(res.Results); !bytes.Equal(got, want) {
							t.Fatalf("%s k=%d: algo=%s returns\n%s\nOptBSearch returns\n%s", stage, k, algo, got, want)
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
				assertServesExact(t, reg, "g", view)
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
			compactNow(t, e)
			if overlayDepth() != 0 {
				t.Fatalf("overlay depth %d after a compaction", overlayDepth())
			}
			check("compacted")
		})
	}
}

// TestExactAliasesShareScoresEntry: algo=opt and algo=base are aliases of
// algo=scores, so all of them and auto share one cache entry per
// (snapshot, k) — whichever asks first reads the published scores, the
// others hit, and every payload names scores. The answer is the library
// OptBSearch's, and no search counter is left to report it.
func TestExactAliasesShareScoresEntry(t *testing.T) {
	g := gen.ChungLu(600, 2.2, 5.3, 60, 3)
	reg := NewRegistry()
	if _, err := reg.Add("g", g, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	for k, algos := range map[int][]string{
		10: {AlgoOpt, AlgoBase, AlgoScores, AlgoAuto},
		25: {AlgoBase, AlgoAuto, AlgoOpt, AlgoScores},
	} {
		want, _ := ego.OptBSearch(g, k, ego.DefaultTheta)
		for i, algo := range algos {
			res, err := reg.TopKQ("g", TopKQuery{K: k, Algo: algo})
			if err != nil {
				t.Fatal(err)
			}
			if hit := i > 0; res.Cached != hit || res.Algo != AlgoScores {
				t.Fatalf("algo=%s k=%d: cached=%v algo %q, want cached=%v algo %q", algo, k, res.Cached, res.Algo, hit, AlgoScores)
			}
			if !bytes.Equal(encodeJSON(res.Results), encodeJSON(want)) {
				t.Fatalf("algo=%s k=%d: %v, OptBSearch %v", algo, k, res.Results, want)
			}
		}
	}
	st, err := reg.Stats("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 2 || st.CacheHits != 6 {
		t.Fatalf("cache hits/misses %d/%d, want 6/2", st.CacheHits, st.CacheMisses)
	}
	if body := encodeJSON(st); bytes.Contains(body, []byte("exact_")) {
		t.Fatalf("stats name an exact-search counter: %s", body)
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
