package ego

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// rowSteps counts, by definition, the steps the counting pass runs over the
// rows [lo, hi) of an ego CSR in the row form count takes: for each x in the
// range, one per connector v ∈ T_x and one per member y of T_v above x that
// the form visits — every one on the walk (d > 64), only those not adjacent
// to x on one-word rows.
func rowSteps(off []int, adj []int32, lo, hi int) (n int64) {
	words := len(off)-1 <= 64
	for x := lo; x < hi; x++ {
		tx := adj[off[x]:off[x+1]]
		for _, v := range tx {
			n++
			for _, y := range adj[off[v]:off[v+1]] {
				if int(y) > x && !(words && slices.Contains(tx, y)) {
					n++
				}
			}
		}
	}
	return n
}

// TestKernelPrice holds an ego's one price to the steps its row form runs.
// On every ego of the differential test's shapes and of apex-over-K_{2,m}
// graphs whose apex has degree 63, 64 and 65, Price, the price a whole-ego
// score leaves for Sweep (read off the histogram on one-word rows) and each
// row's price equal rowSteps' count.
func TestKernelPrice(t *testing.T) {
	graphs := kernelCases()
	for _, d := range []int32{63, 64, 65} {
		graphs[fmt.Sprintf("apex/d=%d", d)] = apexOverK2m(d - 2)
	}
	s := NewScratch(0)
	for name, g := range graphs {
		for p := int32(0); p < g.NumVertices(); p++ {
			EgoBetweenness(g, p, s)
			scored := s.steps
			nu, off, adj := s.EgoCSR(g, p)
			d := len(nu)
			var want int64
			if d >= 2 {
				want = rowSteps(off, adj, 0, d)
			}
			if got := s.Price(off, adj); got != want || scored != want {
				t.Fatalf("%s: ego %d (d=%d) priced %d, scored at %d, its rows run %d", name, p, d, got, scored, want)
			}
			if _, steps := s.ScoreCSR(off, adj); steps != want {
				t.Fatalf("%s: ego %d (d=%d) ScoreCSR ran %d steps, its rows run %d", name, p, d, steps, want)
			}
			if d < 2 {
				continue
			}
			for x, w := range s.rowPrices(off, adj) {
				if run := rowSteps(off, adj, x, x+1); int64(w) != run {
					t.Fatalf("%s: ego %d (d=%d) row %d priced %d, it runs %d", name, p, d, x, w, run)
				}
			}
		}
	}
}

// TestSweepChunksMatchWholeEgo: for every ego and every chunk count k, the
// chunks rowCuts cuts tile the rows [0, d) in order, each is charged the
// steps its rows run, their counting passes add up to the whole ego's
// histogram — so the one fold scores the same bits as EgoBetweenness — and
// its Price is the steps all its rows run.
func TestSweepChunksMatchWholeEgo(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"powerlaw": gen.ChungLu(300, 2.1, 6, 80, 3),
		"collab":   gen.Affiliation(300, 120, 6, 1, 3),
	} {
		s := NewScratch(g.NumVertices())
		for p := int32(0); p < g.NumVertices(); p++ {
			want := EgoBetweenness(g, p, s)
			nu, off, adj := s.EgoCSR(g, p)
			d := len(nu)
			if d < 2 {
				continue
			}
			if w, all := s.Price(off, adj), rowSteps(off, adj, 0, d); w != all {
				t.Fatalf("%s: ego %d charged %d steps, its rows run %d", name, p, w, all)
			}
			for k := 1; k <= 5; k++ {
				hist := make([]int64, d)
				next := 0
				cuts, steps := rowCuts(s.rowPrices(off, adj), k)
				for i := range k {
					lo, hi := cuts[i], cuts[i+1]
					if lo != next || hi < lo || (i == k-1 && hi != d) {
						t.Fatalf("%s: ego %d chunk %d/%d: rows [%d, %d) after %d", name, p, i, k, lo, hi, next)
					}
					if run := rowSteps(off, adj, lo, hi); steps[i] != run {
						t.Fatalf("%s: ego %d chunk %d/%d charged %d steps, its rows run %d", name, p, i, k, steps[i], run)
					}
					next = hi
					s.count(nu, off, adj, lo, hi, nil)
					for c, x := range s.hist[:d] {
						hist[c] += x
					}
					clear(s.hist[:d])
				}
				hist[0] = int64(len(adj) / 2)
				if got := FoldScore(int32(d), hist); got != want {
					t.Fatalf("%s: ego %d in %d chunks: CB %v, whole %v", name, p, k, got, want)
				}
			}
		}
	}
}
