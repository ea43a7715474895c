package dynamic

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pairmap"
)

// TestKernelParallelInit: both constructors start from exactly the
// sequential state — the same kernel sweep at any worker count, scores,
// evidence maps (nil for the same vertices) and histograms alike — and a
// lazy maintainer built on several workers answers like a one-worker one
// after churn refreshes hub egos through the kernel.
func TestKernelParallelInit(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 5),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 5),
	} {
		want, wantMaps := ego.ComputeAllWithMaps(g)
		wantHist := make([][]int64, len(want))
		s := ego.NewScratch(g.NumVertices())
		for v := range want {
			_, _, wantHist[v] = ego.EgoBetweennessWithMap(g, int32(v), s)
		}
		for _, workers := range []int{1, 2, 5} {
			var lt *LazyTopK
			var m *Maintainer
			atWorkers(workers, func() { lt, m = NewLazyTopK(g, 10), NewMaintainer(g) })
			for v := range want {
				w := math.Float64bits(want[v])
				if math.Float64bits(lt.cached[v]) != w || math.Float64bits(m.CB(int32(v))) != w {
					t.Fatalf("%s workers=%d vertex %d: lazy %v, maintainer %v, want %v",
						name, workers, v, lt.cached[v], m.CB(int32(v)), want[v])
				}
				if (m.s[v] == nil) != (wantMaps[v] == nil) || !sameEntries(m.s[v], wantMaps[v]) {
					t.Fatalf("%s workers=%d vertex %d: evidence map differs from the sequential sweep's", name, workers, v)
				}
				if !slices.Equal(m.hist[v], wantHist[v]) {
					t.Fatalf("%s workers=%d vertex %d: histogram %v, sequential %v", name, workers, v, m.hist[v], wantHist[v])
				}
			}
		}

		var seq, par *LazyTopK
		atWorkers(1, func() { seq = NewLazyTopK(g, 10) })
		atWorkers(3, func() { par = NewLazyTopK(g, 10) })
		hubs := graph.OrderOf(g)[:20]
		for i, u := range hubs {
			v := hubs[(i+7)%len(hubs)]
			if u == v {
				continue
			}
			for _, lt := range []*LazyTopK{seq, par} {
				if lt.g.HasEdge(u, v) {
					_ = lt.DeleteEdge(u, v) // present: cannot fail
				} else {
					_ = lt.InsertEdge(u, v) // absent, distinct, in range: cannot fail
				}
			}
		}
		a, b := seq.Results(), par.Results()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: rank %d: one worker %+v, three %+v", name, i, a[i], b[i])
			}
		}
		fresh := ego.ComputeAll(seq.g)
		for _, r := range a {
			if r.CB != fresh[r.V] {
				t.Fatalf("%s: vertex %d: lazy result %v, from scratch %v", name, r.V, r.CB, fresh[r.V])
			}
		}
	}
}

// atWorkers runs fn with the constructors' sweeps pinned to w goroutines.
func atWorkers(w int, fn func()) {
	defer func(old func() int) { sweepWorkers = old }(sweepWorkers)
	sweepWorkers = func() int { return w }
	fn()
}

// sameEntries reports whether two evidence maps hold the same (pair, value)
// entries; a nil map holds none.
func sameEntries(a, b *pairmap.Map) bool { return within(a, b) && within(b, a) }

// within reports whether every entry of a is also an entry of b.
func within(a, b *pairmap.Map) bool {
	same := true
	if a != nil {
		a.Iterate(func(k uint64, val int32) bool {
			var other int32
			ok := false
			if b != nil {
				other, ok = b.Get(k)
			}
			same = ok && other == val
			return same
		})
	}
	return same
}

// TestKernelMapsSurviveUpdateStream: a Maintainer built from the kernel's
// maps, driven through a seeded stream of edge inserts and deletes, ends
// with every evidence map holding exactly the entries of a from-scratch
// rebuild on the final graph — LocalInsert / LocalDelete repair the
// kernel-emitted state as they did the edge pass's. (A map the stream
// emptied stays allocated; the rebuild has nil there.)
func TestKernelMapsSurviveUpdateStream(t *testing.T) {
	for name, g := range streamGraphs() {
		var m *Maintainer
		atWorkers(3, func() { m = NewMaintainer(g) })
		hubStream(t, name, g, m, func(int) {})
		fresh := NewMaintainer(m.Graph().Freeze(1))
		for v := range fresh.s {
			if !sameEntries(m.s[v], fresh.s[v]) {
				t.Fatalf("%s: evidence map of vertex %d differs from a rebuild on the final graph", name, v)
			}
			if m.cb[v] != fresh.cb[v] {
				t.Fatalf("%s: CB(%d) = %v, rebuild %v", name, v, m.cb[v], fresh.cb[v])
			}
		}
	}
}

// TestMapFreeBoundsSurviveUpdateStream is the map-free form's differential
// test over the same stream: after every update, every vertex's t(v) is the
// true number of adjacent pairs of N(v), a fresh score is the kernel's bits,
// and a stale score is the ceiling d(d−1)/2 − t(v), at or above the kernel's.
func TestMapFreeBoundsSurviveUpdateStream(t *testing.T) {
	for name, g := range streamGraphs() {
		var m *Maintainer
		atWorkers(3, func() { m = NewMapFreeMaintainer(g) })
		s := ego.NewScratch(0)
		hubStream(t, name, g, m, func(step int) {
			for v := int32(0); v < m.g.NumVertices(); v++ {
				_, off, adj := s.EgoCSR(m.g, v)
				cb, _ := s.ScoreCSR(off, adj)
				tv := int64(len(adj) / 2)
				d := m.g.Degree(v)
				if m.hist[v][0] != tv {
					t.Fatalf("%s step %d: t(%d) = %d, true adjacent pairs %d", name, step, v, m.hist[v][0], tv)
				}
				got := m.CB(v)
				if !m.stale[v] && math.Float64bits(got) != math.Float64bits(cb) {
					t.Fatalf("%s step %d: fresh CB(%d) = %v, kernel %v", name, step, v, got, cb)
				}
				if m.stale[v] && (got != ego.StaticUB(d)-float64(tv) || got < cb) {
					t.Fatalf("%s step %d: stale CB(%d) = %v, ceiling %v, kernel %v", name, step, v, got, ego.StaticUB(d)-float64(tv), cb)
				}
			}
		})
	}
}

// streamGraphs are the update streams' graphs: the benchmark's two shapes
// in small, and a sparse one.
func streamGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"collab":   gen.Affiliation(600, 300, 5.5, 1, 5),
		"powerlaw": gen.ChungLu(800, 2.2, 5.3, 90, 5),
		"sparse":   gen.ErdosRenyi(60, 40, 5),
	}
}

// hubStream drives m through a seeded stream of 1500 edge toggles, half of
// them with a hub endpoint so big egos churn too, calling after once each
// update applied.
func hubStream(t *testing.T, name string, g *graph.Graph, m *Maintainer, after func(step int)) {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 19))
	n := g.NumVertices()
	hubs := graph.OrderOf(g)[:n/10]
	for step := 0; step < 1500; step++ {
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
		after(step)
	}
}
