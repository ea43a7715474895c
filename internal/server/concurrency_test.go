package server

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
)

// TestConcurrentReadersDuringWrites hammers one graph with parallel top-k /
// per-vertex / stats readers while a writer streams edge-update batches
// through it. Run under -race this validates the snapshot-swap discipline:
// readers only ever touch immutable snapshots, so no read is ever torn by a
// concurrent update. Afterwards the maintained scores are cross-checked
// against a from-scratch search on the final snapshot.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	g := gen.BarabasiAlbert(800, 3, 99)
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "churn", Edges: g.Edges()}, &info); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	n := info.N

	const (
		readers          = 4
		queriesPerReader = 60
		batches          = 25
		batchSize        = 8
	)

	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: stream random insert/delete batches. Individual edges may
	// fail (duplicate/missing) — that is fine, the batch semantics report
	// and continue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(7, 7))
		for b := 0; b < batches; b++ {
			edges := make([][2]int32, batchSize)
			for i := range edges {
				u := rng.Int32N(n)
				v := rng.Int32N(n)
				for v == u {
					v = rng.Int32N(n)
				}
				edges[i] = [2]int32{u, v}
			}
			method := "POST"
			if b%3 == 2 {
				method = "DELETE"
			}
			var up UpdateResult
			if code := doJSON(t, method, ts.URL+"/graphs/churn/edges", EdgeBatch{Edges: edges}, &up); code != http.StatusOK {
				errs <- fmt.Errorf("writer batch %d: status %d", b, code)
				return
			}
		}
	}()

	// Readers: top-k with varying shapes, per-vertex queries, stats. Every
	// response must be internally consistent regardless of which epoch it
	// was served from.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			for q := 0; q < queriesPerReader; q++ {
				switch q % 3 {
				case 0:
					k := 1 + rng.IntN(20)
					var tk TopKResult
					url := fmt.Sprintf("%s/graphs/churn/topk?k=%d", ts.URL, k)
					if code := doJSON(t, "GET", url, nil, &tk); code != http.StatusOK {
						errs <- fmt.Errorf("reader topk: status %d", code)
						return
					}
					if len(tk.Results) != k {
						errs <- fmt.Errorf("reader topk: got %d results, want %d", len(tk.Results), k)
						return
					}
					for i := 1; i < len(tk.Results); i++ {
						if tk.Results[i].CB > tk.Results[i-1].CB {
							errs <- fmt.Errorf("reader topk: results not sorted at %d", i)
							return
						}
					}
				case 1:
					v := rng.Int32N(n)
					var vr VertexResult
					url := fmt.Sprintf("%s/graphs/churn/vertices/%d/ego-betweenness", ts.URL, v)
					if code := doJSON(t, "GET", url, nil, &vr); code != http.StatusOK {
						errs <- fmt.Errorf("reader vertex: status %d", code)
						return
					}
					if vr.CB < 0 || vr.CB > vr.Bound+1e-9 {
						errs <- fmt.Errorf("reader vertex %d: cb %.4f outside [0, bound %.1f]", v, vr.CB, vr.Bound)
						return
					}
				default:
					var st GraphStats
					url := ts.URL + "/graphs/churn/stats"
					if code := doJSON(t, "GET", url, nil, &st); code != http.StatusOK {
						errs <- fmt.Errorf("reader stats: status %d", code)
						return
					}
				}
			}
		}(uint64(r + 1))
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiescent cross-check: the incrementally maintained scores and a
	// from-scratch OptBSearch on the final snapshot's view must agree to the
	// bit.
	e, err := s.Registry().get("churn")
	if err != nil {
		t.Fatal(err)
	}
	snap := e.snap.Load()
	var fromScores TopKResult
	doJSON(t, "GET", ts.URL+"/graphs/churn/topk?k=15&algo=scores", nil, &fromScores)
	if fromScores.Epoch != snap.epoch {
		t.Fatalf("epoch moved after the writer finished: %d vs %d", fromScores.Epoch, snap.epoch)
	}
	if fromSearch, _ := ego.OptBSearch(snap.view, 15, ego.DefaultTheta); !slices.Equal(fromScores.Results, fromSearch) {
		t.Errorf("maintained vs recomputed top-k diverge:\n%v\n%v", fromScores.Results, fromSearch)
	}
}
