package dynamic

import (
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestKernelParallelInit: both parallel constructors start from exactly the
// sequential state — the lazy one from per-worker kernel sweeps, the exact
// one from the EdgePEBW evidence maps — and a lazy maintainer built in
// parallel answers like the sequential one after churn refreshes hub egos
// through the kernel.
func TestKernelParallelInit(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 5),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 5),
	} {
		want := ego.ComputeAll(g)
		for _, workers := range []int{2, 5} {
			lt := NewLazyTopKParallel(g, 10, workers)
			m := NewMaintainerParallel(g, workers)
			for v := range want {
				if lt.cached[v] != want[v] || m.CB(int32(v)) != want[v] {
					t.Fatalf("%s workers=%d vertex %d: lazy %v, maintainer %v, want %v",
						name, workers, v, lt.cached[v], m.CB(int32(v)), want[v])
				}
			}
		}

		seq, par := NewLazyTopK(g, 10), NewLazyTopKParallel(g, 10, 3)
		hubs := graph.OrderOf(g)[:20]
		for i, u := range hubs {
			v := hubs[(i+7)%len(hubs)]
			if u == v {
				continue
			}
			for _, lt := range []*LazyTopK{seq, par} {
				if lt.Graph().HasEdge(u, v) {
					_ = lt.DeleteEdge(u, v) // present: cannot fail
				} else {
					_ = lt.InsertEdge(u, v) // absent, distinct, in range: cannot fail
				}
			}
		}
		a, b := seq.Results(), par.Results()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: rank %d: sequential %+v, parallel %+v", name, i, a[i], b[i])
			}
		}
		fresh := ego.ComputeAll(seq.Graph())
		for _, r := range a {
			if r.CB != fresh[r.V] {
				t.Fatalf("%s: vertex %d: lazy result %v, from scratch %v", name, r.V, r.CB, fresh[r.V])
			}
		}
	}
}
