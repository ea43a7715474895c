package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/approx"
	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// getTopK runs GET path on h and decodes the payload, requiring a 200.
func getTopK(t *testing.T, h http.Handler, path string) (TopKResult, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	var tr TopKResult
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	return tr, rec.Body.Bytes()
}

// TestTopKExplain: ?explain=1 adds the stage timings and the search's own
// account — SearchStats for a scores read over stale bounds, under any of
// its spellings (Computed: the stale candidates recomputed, as the library
// search reports them), approx.Stats for approx — and nothing for a scores
// read with no bound (opt and base included, which read the scores) or for
// a cache hit, which still reports its resolve and cache lookup. Without
// the parameter the payload has no explain object, a hit answers with the
// cached body, and an explained query caches the same answer an unexplained
// one does.
func TestTopKExplain(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	reg := s.Registry()
	defer reg.Close()
	h := s.Handler()
	base := gen.ChungLu(3000, 2.1, 8, 400, 21)
	for _, mode := range []string{ModeLocal, ModeLazy} {
		if _, err := reg.Add(mode, base, mode, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Leave some of the lazy graph's scores stale.
	if _, err := reg.applyEdges(ModeLazy, [][2]int32{{0, 1}, {0, 2}, {5, 9}}, false); err != nil {
		t.Fatal(err)
	}
	e, err := reg.get(ModeLazy)
	if err != nil {
		t.Fatal(err)
	}
	lazy := e.snap.Load()
	seeded := func(k int) *ego.SearchStats {
		_, st, err := ego.SearchSeeded(context.Background(), lazy.view, k, lazy.scores.At, lazy.scores.Stale)
		if err != nil {
			t.Fatal(err)
		}
		if st.Computed == 0 {
			t.Fatalf("the lazy graph's k=%d read recomputed no stale candidate: the test lost its subject", k)
		}
		return &st
	}
	_, apx := approx.TopK(base, 10, approx.Options{})

	for _, c := range []struct {
		path   string
		search *ego.SearchStats
		approx *approx.Stats
	}{
		{"/graphs/local/topk?k=10&explain=1", nil, nil},
		{"/graphs/local/topk?k=11&algo=opt&explain=1", nil, nil},
		{"/graphs/local/topk?k=12&algo=base&explain=1", nil, nil},
		{"/graphs/lazy/topk?k=10&explain=1", seeded(10), nil},
		{"/graphs/lazy/topk?k=11&algo=opt&explain=1", seeded(11), nil},
		{"/graphs/lazy/topk?k=12&algo=base&explain=1", seeded(12), nil},
		{"/graphs/local/topk?k=10&algo=approx&explain=1", nil, &apx},
	} {
		tr, _ := getTopK(t, h, c.path)
		x := tr.Explain
		if x == nil || tr.Cached {
			t.Fatalf("%s: explain %+v, cached %v", c.path, x, tr.Cached)
		}
		if x.ResolveUS < 0 || x.CacheUS < 0 || x.SearchUS <= 0 || x.EncodeUS <= 0 {
			t.Fatalf("%s: stage times %+v", c.path, *x)
		}
		if (x.Search == nil) != (c.search == nil) || (c.search != nil && *x.Search != *c.search) {
			t.Fatalf("%s: search stats %+v, library %+v", c.path, x.Search, c.search)
		}
		if (x.Approx == nil) != (c.approx == nil) || (c.approx != nil && *x.Approx != *c.approx) {
			t.Fatalf("%s: approx stats %+v, library %+v", c.path, x.Approx, c.approx)
		}
	}

	// A hit: explained without stats; unexplained, the cached body itself.
	plain, body := getTopK(t, h, "/graphs/local/topk?k=10&algo=opt")
	if !plain.Cached || plain.Explain != nil {
		t.Fatalf("unexplained hit: cached %v, explain %+v", plain.Cached, plain.Explain)
	}
	hit, _ := getTopK(t, h, "/graphs/local/topk?k=10&algo=opt&explain=1")
	if !hit.Cached || hit.Explain == nil || hit.Explain.SearchUS != 0 || hit.Explain.Search != nil || hit.Explain.EncodeUS <= 0 {
		t.Fatalf("explained hit: cached %v, explain %+v", hit.Cached, hit.Explain)
	}
	if !slices.Equal(hit.Results, plain.Results) {
		t.Fatal("the explained hit answers differently")
	}
	le, err := reg.get(ModeLocal)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := le.snap.Load().cache.Load(cacheKey{k: 10, algo: AlgoScores})
	if !ok || string(v.(cachedResult).hitBody) != string(body) {
		t.Fatal("an unexplained hit does not answer with the cached body")
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/graphs/local/topk?k=10&explain=maybe", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("explain=maybe: status %d, want 400", rec.Code)
	}
}

// TestCancelledQueryIs499: a top-k search whose client went away — a
// seeded scores read, under any of its spellings, or an approx one —
// answers 499 (client closed request), not the 400 of a malformed request,
// and caches nothing.
func TestCancelledQueryIs499(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	defer s.Registry().Close()
	if _, err := s.Registry().Add("g", gen.BarabasiAlbert(300, 3, 4), ModeLazy, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range []string{AlgoScores, AlgoOpt, AlgoBase, AlgoApprox} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/graphs/g/topk?k=10&algo="+algo, nil).WithContext(ctx)
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 499 {
			t.Fatalf("algo=%s: cancelled query answered %d, want 499", algo, rec.Code)
		}
	}
	e, err := s.Registry().get("g")
	if err != nil {
		t.Fatal(err)
	}
	if n := e.snap.Load().cacheCount.Load(); n != 0 {
		t.Fatalf("%d answers cached for cancelled queries", n)
	}
}

// TestApproxServesExactTies: on an edgeless graph every vertex scores 0;
// algo=approx resolves them all exactly and names exact's vertices, 0–4,
// as algo=opt does — not the top of the id range its prescreen admits
// first.
func TestApproxServesExactTies(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Add("g", graph.MustFromEdges(20000, nil), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	want := []ego.Result{{V: 0}, {V: 1}, {V: 2}, {V: 3}, {V: 4}}
	for _, algo := range []string{AlgoApprox, AlgoOpt} {
		res, err := reg.topK("g", 5, algo)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Results, want) {
			t.Fatalf("algo=%s answers %v, want %v", algo, res.Results, want)
		}
	}
}
