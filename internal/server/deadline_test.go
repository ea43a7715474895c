package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ego"
	"repro/internal/gen"
)

// TestSearchDeadline: under a daemon deadline that has passed before the
// search starts, a lazy graph's scores read over stale bounds answers 200
// with a certified prefix of the exact answer — "complete": false, the
// remaining bound capping the first exact score it left out, and
// deadline_hit with the prefix length under explain=1 — an approx read
// answers 503, and neither is cached. A scores read with no bound to
// search, and a query whose own deadline_ms overrides the daemon's, answer
// complete with no deadline field in the payload, and are cached. A
// malformed deadline_ms is a 400.
func TestSearchDeadline(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}), WithRegistryOptions(WithSearchDeadline(time.Nanosecond)))
	reg := s.Registry()
	defer reg.Close()
	h := s.Handler()
	g := gen.ChungLu(3000, 2.1, 8, 400, 21)
	for _, mode := range []string{ModeLocal, ModeLazy} {
		if _, err := reg.Add(mode, g, mode, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.applyEdges(ModeLazy, [][2]int32{{0, 1}, {0, 2}, {5, 9}}, false); err != nil {
		t.Fatal(err)
	}
	cached := func(name string) int64 {
		e, err := reg.get(name)
		if err != nil {
			t.Fatal(err)
		}
		return e.snap.Load().cacheCount.Load()
	}
	lazy, err := reg.get(ModeLazy)
	if err != nil {
		t.Fatal(err)
	}
	want := ego.TopKExact(lazy.snap.Load().view, 100)

	tr, _ := getTopK(t, h, "/graphs/lazy/topk?k=100&explain=1")
	n := len(tr.Results)
	if tr.Complete == nil || *tr.Complete || tr.RemainingBound == nil || n >= len(want) {
		t.Fatalf("cut read: complete %v, remaining bound %v, %d results", tr.Complete, tr.RemainingBound, n)
	}
	if !slices.Equal(tr.Results, want[:n]) || want[n].CB > *tr.RemainingBound {
		t.Fatalf("cut read: %v under bound %v, exact %v", tr.Results, *tr.RemainingBound, want)
	}
	if x := tr.Explain; x == nil || !x.DeadlineHit || x.Prefix == nil || *x.Prefix != n {
		t.Fatalf("cut read: explain %+v, %d results", x, n)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/graphs/local/topk?k=10&algo=approx", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), ErrSearchDeadline.Error()) {
		t.Fatalf("approx past its deadline: status %d: %s", rec.Code, rec.Body)
	}
	if a, b := cached(ModeLocal), cached(ModeLazy); a != 0 || b != 0 {
		t.Fatalf("%d and %d answers cached for deadline-cut reads", a, b)
	}

	for path, want := range map[string][]ego.Result{
		"/graphs/local/topk?k=100":                  ego.TopKExact(g, 100),
		"/graphs/lazy/topk?k=100&deadline_ms=60000": want,
	} {
		tr, body := getTopK(t, h, path)
		if !slices.Equal(tr.Results, want) {
			t.Fatalf("%s: %v, exact %v", path, tr.Results, want)
		}
		if bytes.Contains(body, []byte("complete")) || bytes.Contains(body, []byte("remaining_bound")) {
			t.Fatalf("%s: a complete payload carries deadline fields: %s", path, body)
		}
		if hit, _ := getTopK(t, h, path); !hit.Cached {
			t.Fatalf("%s: the complete answer was not cached", path)
		}
	}

	for _, v := range []string{"-1", "x", "4294967296"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/graphs/lazy/topk?k=10&deadline_ms="+v, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("deadline_ms=%s: status %d, want 400", v, rec.Code)
		}
	}
}
