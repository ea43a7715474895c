package graph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/nbr"
)

func mustG(t *testing.T, n int32, edges [][2]int32) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesBasics(t *testing.T) {
	g := mustG(t, 5, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d, want 5, 4", g.NumVertices(), g.NumEdges())
	}
	if dmax := ComputeStats(g).DMax; dmax != 2 {
		t.Errorf("dmax=%d, want 2", dmax)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDedupAndLoops(t *testing.T) {
	g := mustG(t, 3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}})
	if g.NumEdges() != 2 {
		t.Fatalf("m=%d, want 2 (dup and loop dropped)", g.NumEdges())
	}
	if containsSorted(g.Neighbors(2), 2) {
		t.Error("self-loop survived")
	}
	if !containsSorted(g.Neighbors(0), 1) || !containsSorted(g.Neighbors(1), 0) {
		t.Error("edge (0,1) missing or asymmetric")
	}
}

func TestFromEdgesInferN(t *testing.T) {
	g := mustG(t, -1, [][2]int32{{0, 7}, {3, 2}})
	if g.NumVertices() != 8 {
		t.Fatalf("inferred n=%d, want 8", g.NumVertices())
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(3, [][2]int32{{0, 3}}); err == nil {
		t.Fatal("want error for out-of-range endpoint")
	}
	if _, err := FromEdges(3, [][2]int32{{-1, 2}}); err == nil {
		t.Fatal("want error for negative endpoint")
	}
}

func TestOrderAndRank(t *testing.T) {
	// Degrees: 0:3, 1:2, 2:2, 3:1, 4:0. Ties (1,2) break to larger id.
	g := mustG(t, 5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	order := OrderOf(g)
	want := []int32{0, 2, 1, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	rank := RankOf(g)
	for i, v := range order {
		if rank[v] != int32(i) {
			t.Errorf("rank[%d] = %d, want %d", v, rank[v], i)
		}
	}
}

// TestOrderOfMatchesComparisonSort holds OrderOf's counting sort to a
// comparison sort under ≺ (non-increasing degree, ties by descending id) on
// tie-heavy random graphs — few edges, so most degrees repeat and many are
// 0 — and on overlay chains, whose degrees come through the delta layers.
func TestOrderOfMatchesComparisonSort(t *testing.T) {
	reference := func(a View) []int32 {
		order := make([]int32, a.NumVertices())
		for v := range order {
			order[v] = int32(v)
		}
		sort.Slice(order, func(i, j int) bool {
			u, v := order[i], order[j]
			if du, dv := a.Degree(u), a.Degree(v); du != dv {
				return du > dv
			}
			return u > v
		})
		return order
	}
	check := func(label string, a View) {
		t.Helper()
		if got, want := OrderOf(a), reference(a); !slices.Equal(got, want) {
			t.Fatalf("%s: OrderOf = %v, want %v", label, got, want)
		}
	}
	check("empty", mustG(t, 0, nil))
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x0D3E))
		n := 1 + rng.IntN(300)
		var edges [][2]int32
		for range rng.IntN(n) {
			edges = append(edges, [2]int32{int32(rng.IntN(n)), int32(rng.IntN(n))})
		}
		g := mustG(t, int32(n), edges)
		check(fmt.Sprintf("random seed %d", seed), g)

		d := DynFromGraph(g)
		var view View = g
		for pub := 0; pub < 4; pub++ {
			for range 10 {
				randomScriptStep(rng, d)
			}
			view = d.FreezeOverlay(view)
		}
		check(fmt.Sprintf("overlay seed %d", seed), view)
	}
}

func TestEachEdgeOnce(t *testing.T) {
	g := mustG(t, 6, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {4, 5}})
	seen := map[[2]int32]int{}
	g.EachEdge(func(u, v int32) bool {
		if u >= v {
			t.Fatalf("EachEdge yielded (%d,%d) with u >= v", u, v)
		}
		seen[[2]int32{u, v}]++
		return true
	})
	if int64(len(seen)) != g.NumEdges() {
		t.Fatalf("saw %d edges, want %d", len(seen), g.NumEdges())
	}
	for e, c := range seen {
		if c != 1 {
			t.Errorf("edge %v seen %d times", e, c)
		}
	}
}

func TestEachEdgeEarlyStop(t *testing.T) {
	g := mustG(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	count := 0
	g.EachEdge(func(u, v int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d, want 2", count)
	}
}

func TestOrientation(t *testing.T) {
	g := mustG(t, 4, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	o, rank := Orient(g), RankOf(g)
	// Every undirected edge appears exactly once among the out-neighbor
	// lists, from the ≺-earlier endpoint.
	total := 0
	for v := int32(0); v < 4; v++ {
		for _, w := range o.OutNeighbors(v) {
			total++
			if rank[v] >= rank[w] {
				t.Errorf("oriented edge (%d,%d) violates rank order", v, w)
			}
			if !containsSorted(g.Neighbors(v), w) {
				t.Errorf("oriented edge (%d,%d) not in graph", v, w)
			}
		}
	}
	if int64(total) != g.NumEdges() {
		t.Fatalf("oriented edges %d, want %d", total, g.NumEdges())
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []int32 }{
		{nil, nil, nil},
		{[]int32{1, 2, 3}, nil, nil},
		{[]int32{1, 3, 5}, []int32{2, 4, 6}, nil},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, []int32{2, 3}},
		{[]int32{5}, []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
			21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40}, []int32{5}},
	}
	for i, c := range cases {
		got := nbr.IntersectInto(nil, c.a, c.b)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
		}
		if n := nbr.IntersectCount(c.a, c.b); n != len(c.want) {
			t.Fatalf("case %d: count %d, want %d", i, n, len(c.want))
		}
	}
}

// TestQuickIntersect checks merge and galloping intersection against a map
// oracle for arbitrary inputs, including the size-ratio threshold crossing.
func TestQuickIntersect(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a := sortedUnique(rawA)
		b := sortedUnique(rawB)
		inA := map[int32]bool{}
		for _, x := range a {
			inA[x] = true
		}
		var want []int32
		for _, x := range b {
			if inA[x] {
				want = append(want, x)
			}
		}
		got := nbr.IntersectInto(nil, a, b)
		if len(got) != len(want) || nbr.IntersectCount(a, b) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sortedUnique(raw []uint16) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range raw {
		v := int32(x)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCommonNeighbors(t *testing.T) {
	g := mustG(t, 5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 4}})
	got := nbr.IntersectInto(nil, g.Neighbors(0), g.Neighbors(1))
	want := []int32{2, 3}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("common(0,1) = %v, want %v", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := mustG(t, 3, [][2]int32{{0, 1}, {1, 2}})
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() != g.NumEdges() || c.NumVertices() != g.NumVertices() {
		t.Fatal("clone differs")
	}
}

func TestStats(t *testing.T) {
	// Triangle plus a pendant: 1 triangle.
	g := mustG(t, 4, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	st := ComputeStats(g)
	if st.Triangles != 1 {
		t.Errorf("triangles = %d, want 1", st.Triangles)
	}
	if st.DMax != 3 || st.N != 4 || st.M != 4 {
		t.Errorf("stats = %+v", st)
	}
	// Complete graph K5: C(5,3) = 10 triangles.
	var edges [][2]int32
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, [2]int32{u, v})
		}
	}
	k5 := mustG(t, 5, edges)
	if st := ComputeStats(k5); st.Triangles != 10 {
		t.Errorf("K5 triangles = %d, want 10", st.Triangles)
	}
}
