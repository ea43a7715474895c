package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/ego"
	"repro/internal/graph"
)

// newTestServer returns a quiet test server and its base URL.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := New(WithLogger(func(string, ...any) {}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// doJSON issues one request with a JSON body and decodes the JSON response
// into out (if non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// karateEdges is Zachary's karate club, a standard small graph with
// interesting ego-betweenness structure.
func karateEdges() [][2]int32 {
	return [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 10},
		{0, 11}, {0, 12}, {0, 13}, {0, 17}, {0, 19}, {0, 21}, {0, 31}, {1, 2},
		{1, 3}, {1, 7}, {1, 13}, {1, 17}, {1, 19}, {1, 21}, {1, 30}, {2, 3},
		{2, 7}, {2, 8}, {2, 9}, {2, 13}, {2, 27}, {2, 28}, {2, 32}, {3, 7},
		{3, 12}, {3, 13}, {4, 6}, {4, 10}, {5, 6}, {5, 10}, {5, 16}, {6, 16},
		{8, 30}, {8, 32}, {8, 33}, {9, 33}, {13, 33}, {14, 32}, {14, 33},
		{15, 32}, {15, 33}, {18, 32}, {18, 33}, {19, 33}, {20, 32}, {20, 33},
		{22, 32}, {22, 33}, {23, 25}, {23, 27}, {23, 29}, {23, 32}, {23, 33},
		{24, 25}, {24, 27}, {24, 31}, {25, 31}, {26, 29}, {26, 33}, {27, 33},
		{28, 31}, {28, 33}, {29, 32}, {29, 33}, {30, 32}, {30, 33}, {31, 32},
		{31, 33}, {32, 33},
	}
}

// expectTopK checks a served top-k against a fresh from-scratch ComputeAll:
// the score sequence must equal the exact ranking's, and every returned
// vertex must carry its true exact CB. Vertex identity is only pinned where
// scores are untied (ties at the k-th place may validly resolve either way).
func expectTopK(t *testing.T, got []ego.Result, edges [][2]int32, k int) {
	t.Helper()
	g, err := graph.FromEdges(-1, edges)
	if err != nil {
		t.Fatal(err)
	}
	all := ego.ComputeAll(g)
	want := ego.TopKExact(g, k)
	if len(got) != len(want) {
		t.Fatalf("top-k length: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].CB-want[i].CB) > 1e-9 {
			t.Errorf("top-k[%d]: score %.6f, exact ranking has %.6f", i, got[i].CB, want[i].CB)
		}
		if math.Abs(got[i].CB-all[got[i].V]) > 1e-9 {
			t.Errorf("top-k[%d]: v=%d served with cb=%.6f but its exact cb is %.6f",
				i, got[i].V, got[i].CB, all[got[i].V])
		}
	}
}

// TestServeLifecycle drives the full workflow: load a graph, query top-k,
// stream in edge updates, observe the updated (and still exact) top-k, and
// watch the cache accounting across the snapshot swap.
func TestServeLifecycle(t *testing.T) {
	ts := newTestServer(t)
	edges := karateEdges()

	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "karate", Edges: edges}, &info); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if info.N != 34 || info.M != 78 || info.Epoch != 1 || info.Mode != ModeLocal {
		t.Fatalf("load: unexpected info %+v", info)
	}

	// Initial top-k must match a fresh exact computation.
	var tk TopKResult
	if code := doJSON(t, "GET", ts.URL+"/graphs/karate/topk?k=5", nil, &tk); code != http.StatusOK {
		t.Fatalf("topk: status %d", code)
	}
	if tk.Cached || tk.Epoch != 1 || tk.Algo != AlgoScores {
		t.Fatalf("topk: unexpected envelope %+v", tk)
	}
	expectTopK(t, tk.Results, edges, 5)

	// The identical query again must be a cache hit.
	if doJSON(t, "GET", ts.URL+"/graphs/karate/topk?k=5", nil, &tk); !tk.Cached {
		t.Fatal("second identical topk was not served from cache")
	}
	var st GraphStats
	doJSON(t, "GET", ts.URL+"/graphs/karate/stats", nil, &st)
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache accounting: hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}

	// Stream in a batch: two inserts (one of which is a duplicate and must
	// be reported, not applied) ...
	ins := [][2]int32{{16, 33}, {0, 1}, {4, 24}}
	var up UpdateResult
	if code := doJSON(t, "POST", ts.URL+"/graphs/karate/edges", EdgeBatch{Edges: ins}, &up); code != http.StatusOK {
		t.Fatalf("insert batch: status %d", code)
	}
	if up.Applied != 2 || len(up.Errors) != 1 || up.Errors[0].Edge != [2]int32{0, 1} {
		t.Fatalf("insert batch: unexpected result %+v", up)
	}
	if up.Epoch != 2 {
		t.Fatalf("insert batch: epoch %d, want 2", up.Epoch)
	}
	// ... and a deletion.
	if doJSON(t, "DELETE", ts.URL+"/graphs/karate/edges", EdgeBatch{Edges: [][2]int32{{0, 2}}}, &up); up.Applied != 1 || up.Epoch != 3 {
		t.Fatalf("delete batch: unexpected result %+v", up)
	}

	// The updated graph, recomputed from scratch, is the reference.
	edges = append(edges, [2]int32{16, 33}, [2]int32{4, 24})
	edges = removeEdge(edges, [2]int32{0, 2})

	// The post-update top-k must match a fresh exact computation, through
	// every exact spelling; opt and base are aliases of scores, so they hit
	// its entry.
	for _, c := range []struct {
		algo, served string
		cached       bool
	}{{AlgoScores, AlgoScores, false}, {AlgoOpt, AlgoScores, true}, {AlgoBase, AlgoScores, true}} {
		url := fmt.Sprintf("%s/graphs/karate/topk?k=5&algo=%s", ts.URL, c.algo)
		if code := doJSON(t, "GET", url, nil, &tk); code != http.StatusOK {
			t.Fatalf("topk %s: status %d", c.algo, code)
		}
		if tk.Epoch != 3 || tk.Cached != c.cached || tk.Algo != c.served {
			t.Fatalf("topk %s: unexpected envelope %+v", c.algo, tk)
		}
		expectTopK(t, tk.Results, edges, 5)
	}

	// Per-vertex query agrees with direct computation on the same graph.
	g, err := graph.FromEdges(-1, edges)
	if err != nil {
		t.Fatal(err)
	}
	var vr VertexResult
	if code := doJSON(t, "GET", ts.URL+"/graphs/karate/vertices/33/ego-betweenness", nil, &vr); code != http.StatusOK {
		t.Fatalf("vertex: status %d", code)
	}
	if want := ego.EgoBetweenness(g, 33, nil); math.Abs(vr.CB-want) > 1e-9 {
		t.Errorf("vertex 33: got %.6f want %.6f", vr.CB, want)
	}
	if vr.Degree != g.Degree(33) || vr.Bound != ego.StaticUB(g.Degree(33)) {
		t.Errorf("vertex 33: unexpected payload %+v", vr)
	}

	// Stats reflect the structural state and the accounting so far.
	doJSON(t, "GET", ts.URL+"/graphs/karate/stats", nil, &st)
	if st.Inserts != 2 || st.Deletes != 1 || st.Epoch != 3 {
		t.Fatalf("stats: unexpected %+v", st)
	}
	if st.M != int64(len(edges)) {
		t.Fatalf("stats: m=%d want %d", st.M, len(edges))
	}
}

func removeEdge(edges [][2]int32, e [2]int32) [][2]int32 {
	out := edges[:0]
	for _, x := range edges {
		if x != e {
			out = append(out, x)
		}
	}
	return out
}

// TestServeLazyMode exercises a lazy-maintained graph over HTTP: auto
// reads the published scores at any k, exact across updates that leave
// vertices stale, a stale vertex's read is its kernel score, and algo=lazy
// is no algorithm any more.
func TestServeLazyMode(t *testing.T) {
	ts := newTestServer(t)
	edges := karateEdges()

	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "kz", Edges: edges, Mode: ModeLazy}, &info); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if info.Mode != ModeLazy {
		t.Fatalf("load: unexpected info %+v", info)
	}

	var tk TopKResult
	doJSON(t, "GET", ts.URL+"/graphs/kz/topk?k=8", nil, &tk)
	if tk.Algo != AlgoScores {
		t.Fatalf("auto algo in lazy mode: got %q", tk.Algo)
	}
	expectTopK(t, tk.Results, edges, 8)

	var up UpdateResult
	doJSON(t, "POST", ts.URL+"/graphs/kz/edges", EdgeBatch{Edges: [][2]int32{{9, 13}, {16, 24}}}, &up)
	if up.Applied != 2 {
		t.Fatalf("insert: %+v", up)
	}
	edges = append(edges, [2]int32{9, 13}, [2]int32{16, 24})

	for _, k := range []int{8, 12, 34} {
		doJSON(t, "GET", ts.URL+fmt.Sprintf("/graphs/kz/topk?k=%d", k), nil, &tk)
		if tk.Algo != AlgoScores {
			t.Fatalf("k=%d: auto algo %q", k, tk.Algo)
		}
		expectTopK(t, tk.Results, edges, k)
	}
	g := graph.MustFromEdges(34, edges)
	var vr VertexResult
	doJSON(t, "GET", ts.URL+"/graphs/kz/vertices/13/ego-betweenness", nil, &vr) // stale: an endpoint
	if want := ego.EgoBetweenness(g, 13, nil); vr.CB != want {
		t.Fatalf("stale vertex 13 reads %v, kernel %v", vr.CB, want)
	}

	var errResp map[string]string
	if code := doJSON(t, "GET", ts.URL+"/graphs/kz/topk?k=8&algo=lazy", nil, &errResp); code != http.StatusBadRequest {
		t.Fatalf("algo=lazy: status %d, want 400", code)
	}
}

// TestServeGeneratorAndDataset loads via the generator and dataset sources.
func TestServeGeneratorAndDataset(t *testing.T) {
	ts := newTestServer(t)

	var info GraphInfo
	req := LoadRequest{Name: "ba", Generator: &GeneratorSpec{Model: "ba", N: 500, MPer: 3, Seed: 42}}
	if code := doJSON(t, "POST", ts.URL+"/graphs", req, &info); code != http.StatusCreated {
		t.Fatalf("generator load: status %d", code)
	}
	if info.N != 500 {
		t.Fatalf("generator load: n=%d", info.N)
	}

	var tk TopKResult
	if code := doJSON(t, "GET", ts.URL+"/graphs/ba/topk?k=10&algo=opt", nil, &tk); code != http.StatusOK {
		t.Fatalf("topk: status %d", code)
	}
	if tk.Algo != AlgoScores || len(tk.Results) != 10 {
		t.Fatalf("topk: unexpected %+v", tk)
	}

	var list struct {
		Graphs []GraphInfo `json:"graphs"`
	}
	doJSON(t, "GET", ts.URL+"/graphs", nil, &list)
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "ba" {
		t.Fatalf("list: %+v", list)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/graphs/ba", nil, nil); code != http.StatusOK {
		t.Fatalf("remove: status %d", code)
	}
	if ts2 := doJSON(t, "GET", ts.URL+"/graphs/ba/topk?k=3", nil, nil); ts2 != http.StatusNotFound {
		t.Fatalf("query after remove: status %d", ts2)
	}
}

// TestTopKHitPayload pins the bytes of a cache hit: whether the body comes
// from the cache entry (k ≤ maxHitBodyK) or is encoded per request (above
// it), a hit answers with exactly the miss's payload with "cached" flipped,
// sent in one piece with its length.
func TestTopKHitPayload(t *testing.T) {
	ts := newTestServer(t)
	req := LoadRequest{Name: "ba", Generator: &GeneratorSpec{Model: "ba", N: maxHitBodyK + 200, MPer: 3, Seed: 7}}
	if code := doJSON(t, "POST", ts.URL+"/graphs", req, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	get := func(query string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/graphs/ba/topk?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(raw)) {
			t.Fatalf("%s: status %d, Content-Length %d for %d bytes", query, resp.StatusCode, resp.ContentLength, len(raw))
		}
		return raw
	}
	for _, query := range []string{
		"k=10", "k=100&algo=opt", "k=20&algo=approx&eps=0.1&seed=3",
		fmt.Sprintf("k=%d", maxHitBodyK), fmt.Sprintf("k=%d", maxHitBodyK+1),
	} {
		miss, hit, again := get(query), get(query), get(query)
		if !bytes.Contains(miss, []byte(`"cached": false`)) {
			t.Fatalf("%s: first answer is not a miss: %.200s", query, miss)
		}
		want := bytes.Replace(miss, []byte(`"cached": false`), []byte(`"cached": true`), 1)
		if !bytes.Equal(hit, want) || !bytes.Equal(again, want) {
			t.Fatalf("%s: hit payload differs from the miss's with cached flipped\nmiss %.300s\nhit  %.300s", query, miss, hit)
		}
	}
}

// TestServeErrors covers the failure surface: bad bodies, duplicate names,
// unknown graphs/algos/vertices, empty batches.
func TestServeErrors(t *testing.T) {
	ts := newTestServer(t)

	post := func(body any) int { return doJSON(t, "POST", ts.URL+"/graphs", body, nil) }
	if code := post(map[string]any{"name": "x"}); code != http.StatusBadRequest {
		t.Errorf("no source: status %d", code)
	}
	if code := post(LoadRequest{Name: "", Edges: [][2]int32{{0, 1}}}); code != http.StatusBadRequest {
		t.Errorf("empty name: status %d", code)
	}
	if code := post(LoadRequest{Name: "x", Edges: [][2]int32{{0, 1}}, Mode: "bogus"}); code != http.StatusBadRequest {
		t.Errorf("bad mode: status %d", code)
	}
	if code := post(LoadRequest{Name: "g", Edges: [][2]int32{{0, 1}, {1, 2}}}); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if code := post(LoadRequest{Name: "g", Edges: [][2]int32{{0, 1}}}); code != http.StatusConflict {
		t.Errorf("duplicate name: status %d", code)
	}

	if code := doJSON(t, "GET", ts.URL+"/graphs/nope/topk", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown graph: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/graphs/g/topk?k=0", nil, nil); code != http.StatusBadRequest {
		t.Errorf("k=0: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/graphs/g/topk?algo=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("bad algo: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/graphs/g/vertices/99/ego-betweenness", nil, nil); code != http.StatusBadRequest {
		t.Errorf("vertex out of range: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs/g/edges", EdgeBatch{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", code)
	}

	// A request must not be able to turn into an absurd allocation: huge k
	// is clamped to the vertex count, and an edge naming a far-away vertex
	// id fails per-edge instead of growing the graph to it.
	var tk TopKResult
	if code := doJSON(t, "GET", ts.URL+"/graphs/g/topk?k=2000000000", nil, &tk); code != http.StatusOK {
		t.Errorf("huge k: status %d", code)
	} else if tk.K != 3 || len(tk.Results) != 3 {
		t.Errorf("huge k: got k=%d with %d results, want clamp to 3", tk.K, len(tk.Results))
	}
	var up UpdateResult
	doJSON(t, "POST", ts.URL+"/graphs/g/edges", EdgeBatch{Edges: [][2]int32{{0, 2000000000}}}, &up)
	if up.Applied != 0 || len(up.Errors) != 1 || !strings.Contains(up.Errors[0].Error, "growth limit") {
		t.Errorf("far vertex id: %+v", up)
	}
	if code := post(LoadRequest{Name: "big", Edges: [][2]int32{{0, 2000000000}}}); code != http.StatusBadRequest {
		t.Errorf("far vertex id in load: status %d", code)
	}
	if code := post(LoadRequest{Name: "neg", Generator: &GeneratorSpec{Model: "er", N: -2, M: 1}}); code != http.StatusBadRequest {
		t.Errorf("negative generator n: status %d", code)
	}
	if code := post(LoadRequest{Name: "negm", Generator: &GeneratorSpec{Model: "ba", N: 10, MPer: -1}}); code != http.StatusBadRequest {
		t.Errorf("negative generator mper: status %d", code)
	}
	if code := post(LoadRequest{Name: "huge", Generator: &GeneratorSpec{Model: "ba", N: 1000, MPer: 2000000000}}); code != http.StatusBadRequest {
		t.Errorf("oversized generator edge budget: status %d", code)
	}
	aff := &GeneratorSpec{Model: "affiliation", N: 1000, Communities: 1000000000, MeanSize: 0, P: 1}
	if code := post(LoadRequest{Name: "aff", Generator: aff}); code != http.StatusBadRequest {
		t.Errorf("10⁹ two-member affiliation communities: status %d", code)
	}

	var health map[string]any
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: status %d payload %v", code, health)
	}
}

// TestEpochNotBumpedOnNoopBatch: a batch where every edge fails must not
// publish a new snapshot (the cache survives).
func TestEpochNotBumpedOnNoopBatch(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "g", Edges: [][2]int32{{0, 1}, {1, 2}}}, nil)

	var tk TopKResult
	doJSON(t, "GET", ts.URL+"/graphs/g/topk?k=2", nil, &tk)

	var up UpdateResult
	doJSON(t, "POST", ts.URL+"/graphs/g/edges", EdgeBatch{Edges: [][2]int32{{0, 1}}}, &up)
	if up.Applied != 0 || up.Epoch != 1 || len(up.Errors) != 1 {
		t.Fatalf("noop batch: %+v", up)
	}
	doJSON(t, "GET", ts.URL+"/graphs/g/topk?k=2", nil, &tk)
	if !tk.Cached || tk.Epoch != 1 {
		t.Fatalf("cache should survive a no-op batch: %+v", tk)
	}
}

// TestNotFoundSentinel: every endpoint naming a missing graph answers 404
// from the registry's own failure (ErrNotFound under errors.Is — no second
// lookup that a concurrent load or removal could race), while a bad
// parameter on an existing graph stays a 400.
func TestNotFoundSentinel(t *testing.T) {
	ts := newTestServer(t)
	if code := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "g", Edges: [][2]int32{{0, 1}, {1, 2}}}, nil); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	batch := EdgeBatch{Edges: [][2]int32{{0, 2}}}
	for _, tc := range []struct {
		method, path string
		body         any
		want         int
	}{
		{"GET", "/graphs/nope", nil, http.StatusNotFound},
		{"GET", "/graphs/nope/topk", nil, http.StatusNotFound},
		{"GET", "/graphs/nope/topk?k=0", nil, http.StatusNotFound},
		{"GET", "/graphs/nope/vertices/0/ego-betweenness", nil, http.StatusNotFound},
		{"POST", "/graphs/nope/edges", batch, http.StatusNotFound},
		{"DELETE", "/graphs/nope/edges", batch, http.StatusNotFound},
		{"GET", "/graphs/nope/stats", nil, http.StatusNotFound},
		{"DELETE", "/graphs/nope", nil, http.StatusNotFound},

		{"GET", "/graphs/g/topk?k=0", nil, http.StatusBadRequest},
		{"GET", "/graphs/g/topk?k=x", nil, http.StatusBadRequest},
		{"GET", "/graphs/g/topk?algo=opt&eps=0.1", nil, http.StatusBadRequest},
		{"GET", "/graphs/g/vertices/99/ego-betweenness", nil, http.StatusBadRequest},
		{"GET", "/graphs/g/vertices/x/ego-betweenness", nil, http.StatusBadRequest},
		{"POST", "/graphs/g/edges?ack=bogus", batch, http.StatusBadRequest},
	} {
		if code := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.want)
		}
	}

	// The library surface wraps the same sentinel, including for a writer
	// that looked the graph up before its removal and admits afterwards.
	reg := NewRegistry()
	if _, err := reg.Add("g", graph.MustFromEdges(3, [][2]int32{{0, 1}, {1, 2}}), ModeLazy, 2); err != nil {
		t.Fatal(err)
	}
	straggler, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	_, infoErr := reg.Info("g")
	_, topkErr := reg.TopKQ("g", TopKQuery{K: 1})
	_, applyErr := reg.applyEdges("g", [][2]int32{{0, 2}}, true)
	for what, err := range map[string]error{
		"Info": infoErr, "TopKQ": topkErr, "ApplyEdgesStamped": applyErr,
		"Remove":          reg.Remove("g"),
		"straggler write": straggler.enqueue(&writeReq{edges: [][2]int32{{0, 2}}, insert: true}),
	} {
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("%s on a removed graph: %v, want ErrNotFound", what, err)
		}
	}
}
