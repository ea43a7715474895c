package ego

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// rowSteps counts, by definition, the inner-loop steps the counting pass
// runs over the rows [lo, hi) of an ego CSR: for each x in the range and
// each v ∈ T_x, one step per member of T_v above x.
func rowSteps(off []int, adj []int32, lo, hi int) (n int64) {
	for x := lo; x < hi; x++ {
		for _, v := range adj[off[x]:off[x+1]] {
			for _, y := range adj[off[v]:off[v+1]] {
				if int(y) > x {
					n++
				}
			}
		}
	}
	return n
}

// TestSweepChunksMatchWholeEgo: for every ego and every chunk count k, the
// chunks chunkRows cuts tile the rows [0, d) in order, each is charged the
// steps its rows run, their counting passes add up to the whole ego's
// histogram — so the one fold scores the same bits as EgoBetweenness — and
// egoWork is the steps all its rows run.
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
			if w, all := egoWork(off), rowSteps(off, adj, 0, d); w != all {
				t.Fatalf("%s: ego %d charged %d steps, its rows run %d", name, p, w, all)
			}
			for k := 1; k <= 5; k++ {
				hist := make([]int64, d)
				next := 0
				for i := range k {
					lo, hi, steps := chunkRows(off, adj, i, k, s)
					if lo != next || hi < lo || (i == k-1 && hi != d) {
						t.Fatalf("%s: ego %d chunk %d/%d: rows [%d, %d) after %d", name, p, i, k, lo, hi, next)
					}
					if run := rowSteps(off, adj, lo, hi); steps != run {
						t.Fatalf("%s: ego %d chunk %d/%d charged %d steps, its rows run %d", name, p, i, k, steps, run)
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
