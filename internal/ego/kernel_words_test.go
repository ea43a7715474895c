package ego

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/pairmap"
	"repro/internal/paperex"
)

// TestKernelWordRowsMatchWalk holds the counting pass's two row forms to the
// same bits. On every ego of the Fig. 1 graph, of the differential test's
// shapes (a clique, seeded G(n, p) and others) and of apex-over-K_{2,m}
// graphs whose apex has degree 63, 64 and 65, it runs countWalk, count
// and — for d ≤ 64 — countWords over the whole ego, over both sides of
// every cut [0, k) / [k, d) and over every single row [x, x+1), and
// requires the histogram and the evidence map's slot arrays
// (pairmap.Map.Table) the walk leaves from each of the others.
func TestKernelWordRowsMatchWalk(t *testing.T) {
	graphs := kernelCases()
	// Every cut of every ego of the two densest G(n, p) (n = 70, 80) runs
	// too long here; the other four stay.
	delete(graphs, "gnp/4")
	delete(graphs, "gnp/5")
	graphs["fig1"] = paperex.New()
	for _, d := range []int32{63, 64, 65} {
		graphs[fmt.Sprintf("apex/d=%d", d)] = apexOverK2m(d - 2)
	}

	s := NewScratch(0)
	type result struct {
		hist []int64
		m    *pairmap.Map
	}
	for name, g := range graphs {
		for p := int32(0); p < g.NumVertices(); p++ {
			nu, off, adj := s.EgoCSR(g, p)
			d := len(nu)
			if d < 2 {
				continue
			}
			run := func(pass func([]int32, []int, []int32, int, int, **pairmap.Map), lo, hi int) result {
				var r result
				pass(nu, off, adj, lo, hi, &r.m)
				r.hist = slices.Clone(s.hist[:d])
				clear(s.hist[:d])
				if slices.ContainsFunc(s.cnt[:d], func(c int32) bool { return c != 0 }) {
					t.Fatalf("%s: ego %d rows [%d, %d): counts left behind", name, p, lo, hi)
				}
				return r
			}
			passes := map[string]func([]int32, []int, []int32, int, int, **pairmap.Map){"count": s.count}
			if d <= len(s.rows) {
				passes["words"] = s.countWords
			}
			ranges := [][2]int{{0, d}}
			for k := 1; k < d; k++ {
				ranges = append(ranges, [2]int{0, k}, [2]int{k, d}, [2]int{k - 1, k})
			}
			ranges = append(ranges, [2]int{d - 1, d})
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				want := run(s.countWalk, lo, hi)
				for pass, fn := range passes {
					got := run(fn, lo, hi)
					if !slices.Equal(got.hist, want.hist) {
						t.Fatalf("%s: ego %d (d=%d) rows [%d, %d): %s histogram %v, walk %v",
							name, p, d, lo, hi, pass, got.hist, want.hist)
					}
					if (got.m == nil) != (want.m == nil) {
						t.Fatalf("%s: ego %d (d=%d) rows [%d, %d): %s map nil = %v, walk's nil = %v",
							name, p, d, lo, hi, pass, got.m == nil, want.m == nil)
					}
					if got.m == nil {
						continue
					}
					gk, gv := got.m.Table()
					wk, wv := want.m.Table()
					if !slices.Equal(gk, wk) || !slices.Equal(gv, wv) {
						t.Fatalf("%s: ego %d (d=%d) rows [%d, %d): %s map slots differ from the walk's",
							name, p, d, lo, hi, pass)
					}
				}
			}
		}
	}
}
