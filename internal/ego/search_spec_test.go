package ego

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// specGraphs are the shapes speculation runs over: hubs (powerlaw), cliques
// (collab), a star, whose hub ego has no edge and whose leaves have no pair,
// a ring, on which every score ties, and small random graphs, on which
// reinserted bounds often tie with those of the candidates read ahead — the
// case H's order decides by label.
func specGraphs() map[string]*graph.Graph {
	var star, ring [][2]int32
	for v := int32(1); v <= 40; v++ {
		star = append(star, [2]int32{0, v})
	}
	for v := int32(0); v < 30; v++ {
		ring = append(ring, [2]int32{v, (v + 1) % 30})
	}
	graphs := map[string]*graph.Graph{
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 7),
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 7),
		"star":     graph.MustFromEdges(41, star),
		"ring":     graph.MustFromEdges(30, ring),
	}
	for seed := uint64(200); seed < 220; seed++ {
		graphs[fmt.Sprintf("random/%d", seed)] = gen.Random(seed, 32)
	}
	return graphs
}

// assertSameSearch holds a speculating search to the inline one: the same
// ids, score bits and SearchStats.
func assertSameSearch(t *testing.T, name string, want, got []Result, wantSt, gotSt SearchStats) {
	t.Helper()
	assertSameResults(t, name, want, got)
	if gotSt != wantSt {
		t.Fatalf("%s: SearchStats %+v, inline %+v", name, gotSt, wantSt)
	}
}

// TestSearchWorkersBitIdentical: a search that reads H's next W+1
// candidates and runs their kernels on W helpers decides every candidate as
// the inline loop does, so all three entry points — OptBSearchLabeled on a
// degree-relabeled copy included — return the same list and the same
// SearchStats at W ∈ {1, 2, 4}, whether every candidate is speculated
// (minPrice 0) or only those the price gate admits.
func TestSearchWorkersBitIdentical(t *testing.T) {
	for name, g := range specGraphs() {
		rl := graph.DegreeRelabel(g)
		n := int(g.NumVertices())
		for _, k := range []int{1, 10, 100, n + 5} {
			want, wantSt := searchAll(g, k, 1, nil, false, 1, specPrice)
			for _, w := range []int{1, 2, 4} {
				for _, price := range []int64{0, specPrice} {
					at := fmt.Sprintf("%s k=%d W=%d minPrice=%d", name, k, w, price)
					got, st := searchAll(g, k, 1, nil, false, w, price)
					assertSameSearch(t, "BaseBSearch "+at, want, got, wantSt, st)
				}
			}
			for _, theta := range []float64{1, 1.05, 4, math.Inf(1)} {
				want, wantSt := searchAll(g, k, theta, nil, true, 1, specPrice)
				for _, w := range []int{1, 2, 4} {
					for _, price := range []int64{0, specPrice} {
						at := fmt.Sprintf("%s k=%d θ=%v W=%d minPrice=%d", name, k, theta, w, price)
						got, st := searchAll(g, k, theta, nil, true, w, price)
						assertSameSearch(t, "OptBSearch "+at, want, got, wantSt, st)
						got, st = searchAll(rl.G, k, theta, rl.Ext, true, w, price)
						assertSameSearch(t, "OptBSearchLabeled "+at, want, got, wantSt, st)
					}
				}
			}
		}
	}
}

// TestSearchHelpersExit: a search that stops early leaves no helper behind —
// queued kernels are skipped and running ones finish — so the goroutine
// count returns to where it was.
func TestSearchHelpersExit(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 7)
	before := runtime.NumGoroutine()
	for _, k := range []int{1, 10} {
		for _, w := range []int{2, 4} {
			if _, st := searchAll(g, k, 1.05, nil, true, w, 0); st.Pruned == 0 {
				t.Fatalf("k=%d W=%d: nothing pruned, the search did not stop early", k, w)
			}
			searchAll(g, k, 1, nil, false, w, 0)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the searches, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// searchAll is search under a context that is never done.
func searchAll(g graph.View, k int, theta float64, ext []int32, dynamic bool, workers int, minPrice int64) ([]Result, SearchStats) {
	res, st, _ := search(context.Background(), g, k, theta, ext, dynamic, nil, workers, minPrice)
	return res, st
}

// doneAfter is a context whose Err reports it done from its n+1-th call on,
// so a search checking it once per candidate stops after n candidates.
type doneAfter struct {
	context.Context
	n int
}

func (c *doneAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestSearchCancel: a search whose context is done returns its error and
// no results, whether the context was done before the first candidate or
// mid-search with kernels queued on the helpers, and leaves no helper
// behind (TestSearchHelpersExit's count).
func TestSearchCancel(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 7)
	before := runtime.NumGoroutine()
	for _, dynamic := range []bool{true, false} {
		for _, w := range []int{1, 2, 4} {
			for _, n := range []int{0, 1, 20} {
				res, _, err := search(&doneAfter{context.Background(), n}, g, 100, 1.05, nil, dynamic, nil, w, 0)
				if !errors.Is(err, context.Canceled) || res != nil {
					t.Fatalf("dynamic=%v W=%d done after %d: %d results, err %v; want none and context.Canceled", dynamic, w, n, len(res), err)
				}
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled searches, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSearchConcurrentWindows: searches running at once each start their own
// helpers over memory of their own, so each still returns the inline loop's
// list and SearchStats (run under -race).
func TestSearchConcurrentWindows(t *testing.T) {
	g := gen.ChungLu(1500, 2.2, 5.3, 120, 7)
	type answer struct {
		res []Result
		st  SearchStats
	}
	want := map[int]answer{}
	for _, k := range []int{1, 10, 100} {
		res, st := searchAll(g, k, 1.05, nil, true, 1, specPrice)
		want[k] = answer{res, st}
	}
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 6 {
				k := []int{1, 10, 100}[(c+i)%3]
				res, st := searchAll(g, k, 1.05, nil, true, 2+c%3, 0)
				if st != want[k].st || len(res) != len(want[k].res) {
					t.Errorf("searcher %d k=%d: %d results, %+v; want %d, %+v", c, k, len(res), st, len(want[k].res), want[k].st)
					return
				}
				for r := range res {
					if res[r].V != want[k].res[r].V || math.Float64bits(res[r].CB) != math.Float64bits(want[k].res[r].CB) {
						t.Errorf("searcher %d k=%d: rank %d is %v, want %v", c, k, r, res[r], want[k].res[r])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
