package dynamic

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/paperex"
)

const eps = 1e-9

// TestLocalInsertPaperExample reproduces Example 5: inserting (i,k) changes
// exactly i, k, and their common neighbor f — CB(i)=10.5, CB(k)=0.5,
// CB(f): 11 → 9.5 — and nothing else.
func TestLocalInsertPaperExample(t *testing.T) {
	m := NewMaintainer(paperex.New())
	if err := m.InsertEdge(paperex.I, paperex.K); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < paperex.NumVertices; v++ {
		want, changed := paperex.AfterInsertIK[v]
		if !changed {
			want = paperex.CB[v]
		}
		if math.Abs(m.CB(v)-want) > eps {
			t.Errorf("after insert (i,k): CB(%s) = %v, want %v", paperex.Names[v], m.CB(v), want)
		}
	}
}

// TestLocalDeletePaperExample reproduces Example 6: deleting (c,g) changes
// exactly c, g, and their common neighbors — CB(g): 2/3 → 1/2 as the paper
// computes, with c and e corrected per the paperex package comment.
func TestLocalDeletePaperExample(t *testing.T) {
	m := NewMaintainer(paperex.New())
	if err := m.DeleteEdge(paperex.C, paperex.G); err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < paperex.NumVertices; v++ {
		want, changed := paperex.AfterDeleteCG[v]
		if !changed {
			want = paperex.CB[v]
		}
		if math.Abs(m.CB(v)-want) > eps {
			t.Errorf("after delete (c,g): CB(%s) = %v, want %v", paperex.Names[v], m.CB(v), want)
		}
	}
}

// TestLocalInsertThenDeleteRoundTrip: applying an update and its inverse
// must restore every CB exactly.
func TestLocalInsertThenDeleteRoundTrip(t *testing.T) {
	m := NewMaintainer(paperex.New())
	if err := m.InsertEdge(paperex.I, paperex.K); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteEdge(paperex.I, paperex.K); err != nil {
		t.Fatal(err)
	}
	for v, want := range paperex.CB {
		if math.Abs(m.CB(v)-want) > eps {
			t.Errorf("round trip: CB(%s) = %v, want %v", paperex.Names[v], m.CB(v), want)
		}
	}
}

func TestMaintainerErrors(t *testing.T) {
	m := NewMaintainer(paperex.New())
	if err := m.InsertEdge(paperex.A, paperex.A); err == nil {
		t.Error("self-loop insert must fail")
	}
	if err := m.InsertEdge(paperex.A, paperex.B); err == nil {
		t.Error("duplicate insert must fail")
	}
	if err := m.DeleteEdge(paperex.A, paperex.I); err == nil {
		t.Error("deleting a non-edge must fail")
	}
	if err := m.InsertEdge(-1, 2); err == nil {
		t.Error("negative vertex must fail")
	}
}

// TestInsertEdgeMaxInt32: an endpoint id of math.MaxInt32 would need 2³¹
// vertices, which no int32 count holds. Every InsertEdge refuses it with an
// error and leaves the graph as it was.
func TestInsertEdgeMaxInt32(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	m, lt, d := NewMaintainer(g), NewLazyTopK(g, 2), graph.DynFromGraph(g)
	for _, tc := range []struct {
		name   string
		insert func(u, v int32) error
		graph  *graph.DynGraph
	}{
		{"Maintainer", m.InsertEdge, m.Graph()},
		{"LazyTopK", lt.InsertEdge, lt.g},
		{"DynGraph", d.InsertEdge, d},
	} {
		for _, e := range [][2]int32{{0, math.MaxInt32}, {math.MaxInt32, 2}} {
			if err := tc.insert(e[0], e[1]); err == nil {
				t.Errorf("%s: InsertEdge(%d, %d) accepted", tc.name, e[0], e[1])
			}
		}
		if n, edges := tc.graph.NumVertices(), tc.graph.NumEdges(); n != 3 || edges != 2 {
			t.Errorf("%s: graph is (n=%d, m=%d) after the refusals, want (3, 2)", tc.name, n, edges)
		}
	}
}

// TestMaintainerGrowsVertices: inserting an edge with unseen endpoints must
// extend the vertex set and keep everything consistent.
func TestMaintainerGrowsVertices(t *testing.T) {
	m := NewMaintainer(paperex.New())
	nv := int32(paperex.NumVertices)
	if err := m.InsertEdge(paperex.A, nv+2); err != nil {
		t.Fatal(err)
	}
	if got := m.Graph().NumVertices(); got != nv+3 {
		t.Fatalf("n = %d, want %d", got, nv+3)
	}
	assertMatchesScratch(t, m, "growth")
}

// assertMatchesScratch compares every maintained CB against a from-scratch
// recomputation of the current graph.
func assertMatchesScratch(t *testing.T, m *Maintainer, stage string) {
	t.Helper()
	g := m.Graph().Freeze(1)
	want := ego.ComputeAll(g)
	for v := int32(0); v < g.NumVertices(); v++ {
		if m.CB(v) != want[v] {
			t.Fatalf("%s: CB(%d) = %v, scratch %v", stage, v, m.CB(v), want[v])
		}
	}
}

// TestLocalUpdatesRandomScript drives long random insert/delete scripts on
// random graphs and checks all CBs against recomputation at every step.
func TestLocalUpdatesRandomScript(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 99))
		g := gen.Random(seed, 28)
		m := NewMaintainer(g)
		n := g.NumVertices()
		for step := 0; step < 60; step++ {
			u := rng.Int32N(n)
			v := rng.Int32N(n)
			if u == v {
				continue
			}
			if m.Graph().HasEdge(u, v) {
				if err := m.DeleteEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			} else {
				if err := m.InsertEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			assertMatchesScratch(t, m, "script")
		}
	}
}

// TestLocalUpdatesDenseToEmpty deletes every edge one by one; all CBs must
// hit exactly zero at the end (and match recomputation throughout).
func TestLocalUpdatesDenseToEmpty(t *testing.T) {
	g := gen.ErdosRenyi(14, 60, 5)
	m := NewMaintainer(g)
	edges := g.Edges()
	for i, e := range edges {
		if err := m.DeleteEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			assertMatchesScratch(t, m, "draining")
		}
	}
	for v, cb := range m.All() {
		// Incremental float deltas leave ~1e-15 residue; that is inherent
		// to the local-update arithmetic, not an algorithmic error.
		if math.Abs(cb) > 1e-9 {
			t.Errorf("empty graph: CB(%d) = %v", v, cb)
		}
	}
}

// TestLocalObservationOne verifies Observation 1 directly: vertices outside
// {u, v} ∪ L keep bit-identical CB values across an update.
func TestLocalObservationOne(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 17)
	m := NewMaintainer(g)
	before := append([]float64(nil), m.All()...)
	u, v := int32(0), int32(150)
	if m.Graph().HasEdge(u, v) {
		t.Skip("edge exists in this seed; pick different endpoints")
	}
	affected := map[int32]bool{u: true, v: true}
	for _, w := range nbr.CommonInto(nil, m.Graph(), u, v) {
		affected[w] = true
	}
	if err := m.InsertEdge(u, v); err != nil {
		t.Fatal(err)
	}
	for x := int32(0); x < 200; x++ {
		if !affected[x] && m.CB(x) != before[x] {
			t.Errorf("unaffected vertex %d changed: %v → %v", x, before[x], m.CB(x))
		}
	}
}

// TestLazyTopKPaperExample walks Example 7: k=1, top-1 is f; inserting (i,k)
// drops f to 9.5 and promotes i (10.5).
func TestLazyTopKPaperExample(t *testing.T) {
	lt := NewLazyTopK(paperex.New(), 1)
	res := lt.Results()
	if res[0].V != paperex.F || math.Abs(res[0].CB-11) > eps {
		t.Fatalf("initial top-1 = %v, want f=11", res)
	}
	if err := lt.InsertEdge(paperex.I, paperex.K); err != nil {
		t.Fatal(err)
	}
	res = lt.Results()
	if res[0].V != paperex.I || math.Abs(res[0].CB-10.5) > eps {
		t.Fatalf("top-1 after insert = %v, want i=10.5", res)
	}
}

// TestLazyTopKDeleteExample walks Example 8's k=1 case: deleting (c,g)
// leaves f on top.
func TestLazyTopKDeleteExample(t *testing.T) {
	lt := NewLazyTopK(paperex.New(), 1)
	if err := lt.DeleteEdge(paperex.C, paperex.G); err != nil {
		t.Fatal(err)
	}
	res := lt.Results()
	if res[0].V != paperex.F || math.Abs(res[0].CB-11) > eps {
		t.Fatalf("top-1 after delete = %v, want f=11", res)
	}
}

// TestLazyMatchesLocalOnRandomScripts is the main lazy-correctness property:
// after every update in a random script, LazyTopK's results must be the
// exhaustively maintained top-k — the same vertex ids and score bits, ties at
// the k-th rank included.
func TestLazyMatchesLocalOnRandomScripts(t *testing.T) {
	for seed := uint64(50); seed < 62; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		g := gen.Random(seed, 30)
		n := g.NumVertices()
		k := 1 + int(rng.Int32N(6))
		lt := NewLazyTopK(g, k)
		m := NewMaintainer(g)
		for step := 0; step < 50; step++ {
			u := rng.Int32N(n)
			v := rng.Int32N(n)
			if u == v {
				continue
			}
			var err1, err2 error
			if m.Graph().HasEdge(u, v) {
				err1 = m.DeleteEdge(u, v)
				err2 = lt.DeleteEdge(u, v)
			} else {
				err1 = m.InsertEdge(u, v)
				err2 = lt.InsertEdge(u, v)
			}
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d step %d: %v / %v", seed, step, err1, err2)
			}
			want := m.TopK(k)
			got := lt.Results()
			if len(want) != len(got) {
				t.Fatalf("seed %d step %d: size %d vs %d", seed, step, len(got), len(want))
			}
			for i := range want {
				if want[i].V != got[i].V || math.Float64bits(want[i].CB) != math.Float64bits(got[i].CB) {
					t.Fatalf("seed %d step %d k=%d rank %d: lazy %+v, local %+v",
						seed, step, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestLazyIsActuallyLazy: on a large sparse graph, a single edge insert far
// from the top-k must not recompute more than a handful of vertices.
func TestLazyIsActuallyLazy(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 23)
	lt := NewLazyTopK(g, 10)
	before := lt.Stats.Recomputed
	// Attach a brand-new leaf pair far from any hub.
	if err := lt.InsertEdge(1998, 1999); err != nil {
		// Edge may exist in this seed; use fresh vertices instead.
		if err := lt.InsertEdge(2000, 2001); err != nil {
			t.Fatal(err)
		}
	}
	if did := lt.Stats.Recomputed - before; did > 4 {
		t.Errorf("leaf insert recomputed %d vertices, want ≤ 4", did)
	}
}

func TestLazyErrors(t *testing.T) {
	lt := NewLazyTopK(paperex.New(), 3)
	if err := lt.InsertEdge(paperex.A, paperex.B); err == nil {
		t.Error("duplicate insert must fail")
	}
	if err := lt.DeleteEdge(paperex.A, paperex.I); err == nil {
		t.Error("deleting a non-edge must fail")
	}
	if err := lt.InsertEdge(paperex.A, paperex.A); err == nil {
		t.Error("self-loop must fail")
	}
}

// TestLazyKLargerThanN: k exceeding the vertex count must simply track all
// vertices.
func TestLazyKLargerThanN(t *testing.T) {
	g := graph.MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	lt := NewLazyTopK(g, 10)
	if got := len(lt.Results()); got != 4 {
		t.Fatalf("got %d results, want 4", got)
	}
	if err := lt.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(lt.Results()); got != 4 {
		t.Fatalf("got %d results after insert, want 4", got)
	}
}

// TestLazyNonPositiveK: k ≤ 0 keeps an empty result set, as TopK(g, 0)
// returns none. Updates — including a vertex grown by an insert — still
// maintain the graph and Results stays empty.
func TestLazyNonPositiveK(t *testing.T) {
	g := graph.MustFromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 4}})
	for _, k := range []int{0, -3} {
		lt := NewLazyTopK(g, k)
		if lt.K() != 0 || len(lt.Results()) != 0 {
			t.Fatalf("k=%d: K() = %d, Results() = %v; want 0 and none", k, lt.K(), lt.Results())
		}
		if err := lt.InsertEdge(0, 4); err != nil {
			t.Fatal(err)
		}
		if err := lt.InsertEdge(4, 5); err != nil {
			t.Fatal(err)
		}
		if err := lt.DeleteEdge(1, 3); err != nil {
			t.Fatal(err)
		}
		if !lt.g.HasEdge(0, 4) || !lt.g.HasEdge(4, 5) || lt.g.HasEdge(1, 3) {
			t.Fatalf("k=%d: updates did not reach the maintained graph", k)
		}
		if res := lt.Results(); len(res) != 0 {
			t.Fatalf("k=%d: Results() after updates = %v, want none", k, res)
		}
	}
}
