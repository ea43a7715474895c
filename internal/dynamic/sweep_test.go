package dynamic

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pairmap"
)

// TestKernelParallelInit: both parallel constructors start from exactly the
// sequential state — the same kernel sweep at any worker count, scores and
// evidence maps (nil for the same vertices) alike — and a lazy maintainer
// built in parallel answers like the sequential one after churn refreshes
// hub egos through the kernel.
func TestKernelParallelInit(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 5),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 5),
	} {
		want, wantMaps := ego.ComputeAllWithMaps(g)
		for _, workers := range []int{1, 2, 5} {
			lt := NewLazyTopKParallel(g, 10, workers)
			m := NewMaintainerParallel(g, workers)
			for v := range want {
				if lt.cached[v] != want[v] || m.CB(int32(v)) != want[v] {
					t.Fatalf("%s workers=%d vertex %d: lazy %v, maintainer %v, want %v",
						name, workers, v, lt.cached[v], m.CB(int32(v)), want[v])
				}
				if (m.s[v] == nil) != (wantMaps[v] == nil) || !sameEntries(m.s[v], wantMaps[v]) {
					t.Fatalf("%s workers=%d vertex %d: evidence map differs from the sequential sweep's", name, workers, v)
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

// sameEntries reports whether two evidence maps hold the same (pair, value)
// entries; a nil map holds none.
func sameEntries(a, b *pairmap.Map) bool {
	if a == nil || b == nil {
		return (a == nil || a.Len() == 0) && (b == nil || b.Len() == 0)
	}
	if a.Len() != b.Len() {
		return false
	}
	same := true
	a.Iterate(func(k uint64, val int32) bool {
		other, ok := b.Get(k)
		same = ok && other == val
		return same
	})
	return same
}

// TestKernelMapsSurviveUpdateStream: a Maintainer built from the kernel's
// maps, driven through a seeded stream of edge inserts and deletes, ends
// with every evidence map holding exactly the entries of a from-scratch
// rebuild on the final graph — LocalInsert / LocalDelete repair the
// kernel-emitted state as they did the edge pass's. (A map the stream
// emptied stays allocated; the rebuild has nil there.)
func TestKernelMapsSurviveUpdateStream(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"collab":   gen.Affiliation(600, 300, 5.5, 1, 5),
		"powerlaw": gen.ChungLu(800, 2.2, 5.3, 90, 5),
		"sparse":   gen.ErdosRenyi(60, 40, 5),
	} {
		m := NewMaintainerParallel(g, 3)
		rng := rand.New(rand.NewPCG(17, 19))
		n := g.NumVertices()
		hubs := graph.OrderOf(g)[:n/10]
		for step := 0; step < 1500; step++ {
			// Half the updates land on a hub so big egos churn too.
			u, v := rng.Int32N(n), rng.Int32N(n)
			if step%2 == 0 {
				u = hubs[rng.IntN(len(hubs))]
			}
			if u == v {
				continue
			}
			var err error
			if m.Graph().HasEdge(u, v) {
				err = m.DeleteEdge(u, v)
			} else {
				err = m.InsertEdge(u, v)
			}
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
		}
		fresh := NewMaintainer(m.Graph().Freeze(1))
		for v := range fresh.s {
			if !sameEntries(m.s[v], fresh.s[v]) {
				t.Fatalf("%s: evidence map of vertex %d differs from a rebuild on the final graph", name, v)
			}
			if math.Abs(m.cb[v]-fresh.cb[v]) > 1e-6 {
				t.Fatalf("%s: CB(%d) = %v, rebuild %v", name, v, m.cb[v], fresh.cb[v])
			}
		}
	}
}
