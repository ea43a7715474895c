package ego

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// assertSameResults compares two result lists with == on vertex ids and on
// score bits: the result order (score desc, id asc) is total, so every exact
// path must return the same list, ties at the k-th rank included.
func assertSameResults(t *testing.T, name string, want, got []Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].V != want[i].V || math.Float64bits(got[i].CB) != math.Float64bits(want[i].CB) {
			t.Fatalf("%s: rank %d is (%d, %.17g), want (%d, %.17g)",
				name, i, got[i].V, got[i].CB, want[i].V, want[i].CB)
		}
	}
}

// assertSearchesExact holds both searches on view a against TopKExact over
// the k grid {1, 2, 3, n/2, n, n+5} and θ ∈ {1, 1.05, 1.5}. With rl set (a
// degree-relabeled copy of the same graph) OptBSearchLabeled through Ext is
// held to the same lists.
func assertSearchesExact(t *testing.T, name string, a graph.View, rl *graph.Relabeled) {
	t.Helper()
	n := int(a.NumVertices())
	for _, k := range []int{1, 2, 3, n / 2, n, n + 5} {
		want := TopKExact(a, k)
		base, bst := BaseBSearch(a, k)
		assertSameResults(t, fmt.Sprintf("%s: BaseBSearch k=%d", name, k), want, base)
		if bst.Computed > int64(n) {
			t.Fatalf("%s k=%d: BaseBSearch computed %d of %d vertices", name, k, bst.Computed, n)
		}
		for _, theta := range []float64{1, 1.05, 1.5} {
			opt, ost := OptBSearch(a, k, theta)
			assertSameResults(t, fmt.Sprintf("%s: OptBSearch k=%d θ=%v", name, k, theta), want, opt)
			if ost.Computed > int64(n) {
				t.Fatalf("%s k=%d θ=%v: OptBSearch computed %d of %d vertices", name, k, theta, ost.Computed, n)
			}
			if rl != nil {
				lab, lst := OptBSearchLabeled(rl.G, k, theta, rl.Ext)
				assertSameResults(t, fmt.Sprintf("%s: OptBSearchLabeled k=%d θ=%v", name, k, theta), want, lab)
				if lst != ost {
					t.Fatalf("%s k=%d θ=%v: SearchStats differ:\nrelabeled %+v\nplain     %+v", name, k, theta, lst, ost)
				}
			}
		}
	}
}

// TestSearchesAgreeWithExhaustive: on 200 random graphs both searches, and
// OptBSearchLabeled on a degree-relabeled copy, return exactly TopKExact's
// list for every k and θ of the grid.
func TestSearchesAgreeWithExhaustive(t *testing.T) {
	for seed := uint64(200); seed < 400; seed++ {
		g := gen.Random(seed, 32)
		assertSearchesExact(t, fmt.Sprintf("seed %d", seed), g, graph.DegreeRelabel(g))
	}
}

// TestSearchesExactAcrossViews runs the same grid on the benchmark's two
// shapes at smoke scale: the frozen CSR with its degree-relabeled copy, a
// DynGraph under random churn, and the overlay chain that churn publishes.
func TestSearchesExactAcrossViews(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 7),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 7),
	}
	for name, g := range shapes {
		assertSearchesExact(t, name, g, graph.DegreeRelabel(g))

		d := graph.DynFromGraph(g)
		rng := rand.New(rand.NewPCG(17, 19))
		var view graph.View = g
		for round := 0; round < 3; round++ {
			churn(d, rng, 300)
			view = d.FreezeOverlay(view)
		}
		assertSearchesExact(t, name+"/dyn", d, nil)
		assertSearchesExact(t, name+"/overlay", view, nil)
	}
}

// FuzzSearch: on any edge list, k and θ — NaN, infinite and sub-1 ratios
// included — OptBSearch == BaseBSearch == TopKExact, two helpers
// speculating every candidate return the inline loop's lists and
// SearchStats, and nothing panics. A seeded search whose stale vertices
// (bit v of stale, cycled) carry StaticUB and the rest their exact scores,
// cut by a deadline after j candidates (cut, reduced mod 2n+2), returns
// TopKExact's first results and a *Partial whose Bound caps the first
// result it left out, or the whole answer and no error — inline and on a
// helper. The seeds cover isolated and pendant vertices (the kernel's d < 2
// exit, which builds no ego CSR), a star, a clique and a ring where every
// score ties.
func FuzzSearch(f *testing.F) {
	f.Add([]byte{}, uint16(1), 1.05, []byte{}, uint16(0))
	f.Add([]byte{7, 0, 1, 1, 2, 2, 3, 3, 1, 3, 4}, uint16(3), 1.05, []byte{0x0a}, uint16(1)) // triangle + pendant path, 5…7 isolated
	star := []byte{20}
	for v := byte(1); v <= 20; v++ {
		star = append(star, 0, v)
	}
	f.Add(star, uint16(4), 1.0, []byte{0x01}, uint16(0))
	clique := []byte{7}
	for u := byte(0); u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			clique = append(clique, u, v)
		}
	}
	f.Add(clique, uint16(5), 1.5, []byte{0xff}, uint16(3))
	ring := []byte{11}
	for v := byte(0); v < 12; v++ {
		ring = append(ring, v, (v+1)%12)
	}
	f.Add(ring, uint16(5), 0.2, []byte{0x5a, 0x0f}, uint16(4))
	f.Fuzz(func(t *testing.T, data []byte, k uint16, theta float64, stale []byte, cut uint16) {
		if len(data) > 1024 {
			t.Skip()
		}
		g := fuzzGraph(data)
		kk := int(k)%(int(g.NumVertices())+6) + 1
		want := TopKExact(g, kk)
		base, _ := BaseBSearch(g, kk)
		assertSameResults(t, "BaseBSearch", want, base)
		opt, _ := OptBSearch(g, kk, theta)
		assertSameResults(t, "OptBSearch", want, opt)
		for _, dynamic := range []bool{false, true} {
			inline, ist := searchAll(g, kk, theta, nil, dynamic, 1, 0)
			spec, sst := searchAll(g, kk, theta, nil, dynamic, 2, 0)
			assertSameSearch(t, fmt.Sprintf("W=2 dynamic=%v", dynamic), inline, spec, ist, sst)
		}

		n := g.NumVertices()
		score, isStale := ComputeAll(g), make([]bool, n)
		for v := range score {
			if len(stale) > 0 && stale[v/8%len(stale)]>>(v%8)&1 == 1 {
				isStale[v] = true
				score[v] = StaticUB(g.Degree(int32(v)))
			}
		}
		sd := &seed{func(v int32) float64 { return score[v] }, func(v int32) bool { return isStale[v] }}
		j := int(cut) % (2*int(n) + 2)
		for _, w := range []int{1, 2} {
			label := fmt.Sprintf("seeded W=%d cut after %d", w, j)
			got, _, err := search(&deadlineAfter{context.Background(), j}, g, kk, 1, nil, false, sd, w, 0)
			if len(got) > len(want) {
				t.Fatalf("%s: %d results, exact %d", label, len(got), len(want))
			}
			assertSameResults(t, label, want[:len(got)], got)
			var p *Partial
			switch {
			case err == nil:
				if len(got) != len(want) {
					t.Fatalf("%s: %d of %d results and no error", label, len(got), len(want))
				}
			case !errors.As(err, &p) || !errors.Is(err, context.DeadlineExceeded):
				t.Fatalf("%s: err %v, want a *Partial", label, err)
			case len(got) == len(want) || want[len(got)].CB > p.Bound:
				t.Fatalf("%s: %d results under bound %v, exact %v", label, len(got), p.Bound, want)
			}
		}
	})
}
