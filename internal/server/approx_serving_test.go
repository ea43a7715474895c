package server

import (
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// approxTestGraph returns a hub-heavy graph whose top vertices exceed the
// default Hoeffding budget, so AlgoApprox actually samples.
func approxTestGraph() *graph.Graph {
	return gen.BarabasiAlbert(900, 10, 21)
}

// TestApproxServingEquivalenceAcrossViews pins the acceptance contract:
// with a fixed seed, algo=approx answers bit-identically whether the
// snapshot serves a frozen CSR or an overlay chain — and whatever the
// build-worker budget.
func TestApproxServingEquivalenceAcrossViews(t *testing.T) {
	full := approxTestGraph()

	// Split off a tail of edges to apply through the write pipeline, so
	// the overlay registry's served view is a real delta chain.
	var baseEdges, extraEdges [][2]int32
	graph.EachEdgeIn(full, func(u, v int32) bool {
		if (u+v)%17 == 0 {
			extraEdges = append(extraEdges, [2]int32{u, v})
		} else {
			baseEdges = append(baseEdges, [2]int32{u, v})
		}
		return true
	})
	base := graph.MustFromEdges(full.NumVertices(), baseEdges)

	q := TopKQuery{K: 25, Algo: AlgoApprox, Eps: 0.05, Seed: 7}

	frozen := NewRegistry(WithBuildWorkers(1))
	if _, err := frozen.Add("g", full, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	want, err := frozen.TopKQ("g", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) != 25 {
		t.Fatalf("got %d results, want 25", len(want.Results))
	}

	frozen4 := NewRegistry(WithBuildWorkers(4))
	if _, err := frozen4.Add("g", full, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}

	overlay := NewRegistry(WithBuildWorkers(4), WithCompactPolicy(1000, 1.0))
	if _, err := overlay.Add("g", base, ModeLazy, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := overlay.applyEdges("g", extraEdges, true); err != nil {
		t.Fatal(err)
	}
	if info, err := overlay.Info("g"); err != nil || info.OverlayDepth == 0 {
		t.Fatalf("overlay registry did not produce an overlay view (info %+v, err %v)", info, err)
	}

	for name, reg := range map[string]*Registry{"frozen/4 workers": frozen4, "overlay": overlay} {
		got, err := reg.TopKQ("g", q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("%s: approx results diverge from frozen\n got %v\nwant %v", name, got.Results, want.Results)
		}
		if got.ApproxSamples != want.ApproxSamples || got.ApproxEpsAchieved != want.ApproxEpsAchieved {
			t.Fatalf("%s: telemetry diverges: %d/%v vs %d/%v", name,
				got.ApproxSamples, got.ApproxEpsAchieved, want.ApproxSamples, want.ApproxEpsAchieved)
		}
	}
}

// TestApproxQueryKnobsAndCache covers knob resolution, validation, the
// per-snapshot cache, and the GraphInfo counters.
func TestApproxQueryKnobsAndCache(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("g", approxTestGraph(), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}

	first, err := reg.TopKQ("g", TopKQuery{K: 10, Algo: AlgoApprox})
	if err != nil {
		t.Fatal(err)
	}
	if first.Eps != 0.05 || first.Conf != 0.95 || first.Seed != 1 {
		t.Fatalf("defaults not resolved: %+v", first)
	}
	if first.ApproxSamples == 0 {
		t.Fatal("estimator drew no samples on a hub-heavy graph")
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}

	// Identical query → cache hit carrying the same telemetry.
	second, err := reg.TopKQ("g", TopKQuery{K: 10, Algo: AlgoApprox})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("identical approx query missed the cache")
	}
	if second.ApproxSamples != first.ApproxSamples || second.ApproxEpsAchieved != first.ApproxEpsAchieved {
		t.Fatalf("cached telemetry diverges: %+v vs %+v", second, first)
	}
	if !reflect.DeepEqual(second.Results, first.Results) {
		t.Fatal("cached results diverge")
	}

	// A different seed is a different cache entry (and likely different
	// estimates).
	reseeded, err := reg.TopKQ("g", TopKQuery{K: 10, Algo: AlgoApprox, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reseeded.Cached {
		t.Fatal("seed=2 hit the seed=1 cache entry")
	}

	// Setting a knob steers an auto query to the approx tier.
	auto, err := reg.TopKQ("g", TopKQuery{K: 10, Eps: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if auto.Algo != AlgoApprox || auto.Eps != 0.1 {
		t.Fatalf("auto+eps did not select approx: %+v", auto)
	}

	// Counters: 3 computed queries (first, reseeded, auto), 1 cache hit.
	info, err := reg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.ApproxQueries != 3 {
		t.Fatalf("approx_queries = %d, want 3", info.ApproxQueries)
	}
	if info.ApproxSamples < first.ApproxSamples {
		t.Fatalf("approx_samples = %d < first query's %d", info.ApproxSamples, first.ApproxSamples)
	}

	// Validation: out-of-range knobs and knobs on exact algos are rejected.
	for _, bad := range []TopKQuery{
		{K: 5, Algo: AlgoApprox, Eps: 1.5},
		{K: 5, Algo: AlgoApprox, Eps: -0.1},
		{K: 5, Algo: AlgoApprox, Conf: 1},
		{K: 5, Algo: AlgoApprox, Eps: math.NaN()},
		{K: 5, Algo: AlgoOpt, Eps: 0.05},
		{K: 5, Algo: AlgoScores, Seed: 3},
	} {
		if _, err := reg.TopKQ("g", bad); err == nil {
			t.Fatalf("query %+v was accepted", bad)
		}
	}

	// Approx answers approximate the exact ranking (loose sanity: overlap
	// with the exact top set well above chance).
	exact, err := reg.TopKQ("g", TopKQuery{K: 10, Algo: AlgoScores})
	if err != nil {
		t.Fatal(err)
	}
	if r := ego.Overlap(exact.Results, first.Results); r < 0.5 {
		t.Fatalf("approx overlap with exact top-10 = %v", r)
	}
}

// TestApproxHTTP exercises the eps/conf/seed query knobs end to end.
func TestApproxHTTP(t *testing.T) {
	ts := newTestServer(t)
	if code := doJSON(t, "POST", ts.URL+"/graphs", &LoadRequest{
		Name: "g",
		Generator: &GeneratorSpec{
			Model: "ba", N: 900, MPer: 10, Seed: 21,
		},
	}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}

	var res TopKResult
	url := ts.URL + "/graphs/g/topk?algo=approx&k=15&eps=0.1&conf=0.9&seed=7"
	if code := doJSON(t, "GET", url, nil, &res); code != http.StatusOK {
		t.Fatalf("topk: status %d", code)
	}
	if res.Algo != AlgoApprox || res.Eps != 0.1 || res.Conf != 0.9 || res.Seed != 7 {
		t.Fatalf("knobs not echoed: %+v", res)
	}
	if len(res.Results) != 15 || res.ApproxSamples == 0 {
		t.Fatalf("payload incomplete: %+v", res)
	}

	// Determinism over HTTP: the same URL answers identically (cached or
	// not, the values cannot move for a fixed seed).
	var again TopKResult
	doJSON(t, "GET", url, nil, &again)
	if !reflect.DeepEqual(again.Results, res.Results) {
		t.Fatal("same-seed HTTP answers diverge")
	}

	for _, bad := range []string{
		"/graphs/g/topk?algo=approx&eps=2",
		"/graphs/g/topk?algo=approx&eps=abc",
		"/graphs/g/topk?algo=approx&conf=1.0",
		"/graphs/g/topk?algo=approx&seed=-1",
		"/graphs/g/topk?algo=opt&eps=0.05",
	} {
		if code := doJSON(t, "GET", ts.URL+bad, nil, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, code)
		}
	}
}

// TestApproxWorksInLazyMode: the approx tier needs only the snapshot view,
// so it serves any k in ModeLazy — including k beyond the maintained set.
func TestApproxWorksInLazyMode(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("g", approxTestGraph(), ModeLazy, 5); err != nil {
		t.Fatal(err)
	}
	res, err := reg.TopKQ("g", TopKQuery{K: 50, Algo: AlgoApprox})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 50 {
		t.Fatalf("got %d results, want 50", len(res.Results))
	}
}

// TestApproxTheta ensures θ still validates on the approx tier (shared
// contract) but is not echoed in approx payloads.
func TestApproxTheta(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Add("g", approxTestGraph(), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.TopKQ("g", TopKQuery{K: 5, Algo: AlgoApprox, Theta: 0.5}); err == nil {
		t.Fatal("theta 0.5 accepted")
	}
	res, err := reg.TopKQ("g", TopKQuery{K: 5, Algo: AlgoApprox, Theta: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Theta != 0 {
		t.Fatalf("approx payload echoed theta: %+v", res)
	}
}
