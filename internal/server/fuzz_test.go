package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path"
	"testing"

	"repro/internal/gen"
)

// fuzzCap bounds what one FuzzHandler input may ask POST /graphs to build —
// vertices, and the edge budget a generator implies — so a single input
// cannot allocate gigabytes. The server's own limits sit far above it.
const fuzzCap = 4096

// FuzzHandler sends one request — method, path below /graphs, query, body —
// to the handler of a fresh in-memory server serving a ModeLocal graph
// "local" and a ModeLazy graph "lazy" of 50 vertices. Whatever the request,
// the handler must not panic, must answer one of the API's statuses, and
// must answer JSON. Requests the mux routes to none of the API's patterns
// (its own 404, 405 and redirects) are not the handler's and are skipped,
// as are POST /graphs bodies beyond fuzzCap; oversized seeds stay useful
// as starting points for mutation.
func FuzzHandler(f *testing.F) {
	for _, s := range [][4]string{
		// README's curl transcript, against the served graphs.
		{"POST", "", "", `{"name":"demo","generator":{"model":"ba","n":5000,"mper":4,"seed":7}}`},
		{"GET", "/local/topk", "k=10", ""},
		{"GET", "/local/topk", "k=10&algo=opt&theta=1.1", ""},
		{"GET", "/local/topk", "k=10&algo=approx", ""},
		{"GET", "/lazy/topk", "k=10&algo=approx&eps=0.1&conf=0.99&seed=7", ""},
		{"GET", "/local/vertices/42/ego-betweenness", "", ""},
		{"POST", "/local/edges", "", `{"edges":[[1,49],[2,48]]}`},
		{"POST", "/lazy/edges", "ack=async", `{"edges":[[3,47]]}`},
		{"DELETE", "/local/edges", "", `{"edges":[[1,49]]}`},
		{"GET", "/local/stats", "", ""},
		{"DELETE", "/lazy", "", ""},
		// TestServeErrors' requests.
		{"POST", "", "", `{"name":"x"}`},
		{"POST", "", "", `{"name":"","edges":[[0,1]]}`},
		{"POST", "", "", `{"name":"x","edges":[[0,1]],"mode":"bogus"}`},
		{"POST", "", "", `{"name":"local","edges":[[0,1]]}`},
		{"GET", "/nope/topk", "", ""},
		{"GET", "/local/topk", "k=0", ""},
		{"GET", "/local/topk", "algo=bogus", ""},
		{"GET", "/local/topk", "theta=0.5", ""},
		{"GET", "/local/topk", "algo=opt&theta=inf", ""},
		{"GET", "/local/vertices/99/ego-betweenness", "", ""},
		{"POST", "/local/edges", "", `{}`},
		{"GET", "/local/topk", "k=2000000000", ""},
		{"POST", "/local/edges", "", `{"edges":[[0,2000000000]]}`},
		{"POST", "", "", `{"name":"big","edges":[[0,2000000000]]}`},
		{"POST", "", "", `{"name":"neg","generator":{"model":"er","n":-2,"m":1}}`},
		{"POST", "", "", `{"name":"negm","generator":{"model":"ba","n":10,"mper":-1}}`},
		{"POST", "", "", `{"name":"huge","generator":{"model":"ba","n":1000,"mper":2000000000}}`},
		{"POST", "", "", `{"name":"aff","generator":{"model":"affiliation","n":1000,"communities":1000000000,"mean_size":0,"p":1}}`},
	} {
		f.Add(s[0], s[1], s[2], []byte(s[3]))
	}
	base := gen.BarabasiAlbert(50, 3, 1)
	f.Fuzz(func(t *testing.T, method, suffix, query string, body []byte) {
		req, err := http.NewRequest(method, "/graphs"+suffix+"?"+query, bytes.NewReader(body))
		if err != nil || req.Method == http.MethodHead || path.Clean(req.URL.EscapedPath()) != req.URL.EscapedPath() {
			return
		}
		s := New(WithLogger(func(string, ...any) {}))
		mux := s.Handler().(*http.ServeMux)
		if _, pattern := mux.Handler(req); pattern == "" {
			return
		}
		if req.Method == http.MethodPost && req.URL.Path == "/graphs" && oversized(body) {
			return
		}
		reg := s.Registry()
		defer reg.Close()
		if _, err := reg.Add("local", base, ModeLocal, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Add("lazy", base, ModeLazy, 5); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusCreated, http.StatusAccepted, http.StatusBadRequest,
			http.StatusNotFound, http.StatusConflict, http.StatusTooManyRequests:
		default:
			t.Fatalf("%s %s: status %d: %s", method, req.URL, rec.Code, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s: status %d with a body that is not JSON: %q", method, req.URL, rec.Code, rec.Body.Bytes())
		}
	})
}

// oversized reports whether a POST /graphs body, decoded as the handler
// decodes it, asks for a graph beyond fuzzCap — more vertices, a larger
// generator edge budget — or for a dataset analog (thousands of vertices).
func oversized(body []byte) bool {
	var req LoadRequest
	if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
		return false
	}
	if req.Dataset != "" || req.N > fuzzCap {
		return true
	}
	for _, e := range req.Edges {
		if e[0] >= fuzzCap || e[1] >= fuzzCap {
			return true
		}
	}
	g := req.Generator
	if g == nil {
		return false
	}
	n := float64(g.N)
	community := 2 + math.Floor(2*math.Max(g.MeanSize, 0)) // gen.Affiliation's largest draw
	for _, size := range []float64{n, float64(g.M), n * float64(g.MPer), n * float64(g.K), n * g.AvgDeg,
		float64(g.Communities) * community * (community - 1) / 2} {
		if size > fuzzCap {
			return true
		}
	}
	return false
}
