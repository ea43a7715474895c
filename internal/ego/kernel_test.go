package ego

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

// assertKernelExact checks, with == and no tolerance, that the exact paths
// agree on every vertex of a: the dense kernel loop (ComputeAll), the
// kernel-emitted evidence maps scored by ScoreEvidence, and the per-vertex
// kernel over a Scratch shared across the whole run — and that every emitted
// map is the one the definition gives (referenceMap): same keys, same
// values, nil for the same vertices. (The second independent check of the
// maps, against the paper's edge pass, is internal/parallel's
// TestKernelMapsMatchEdgePass.) It returns the score vector.
func assertKernelExact(t *testing.T, name string, a graph.View, s *Scratch) []float64 {
	t.Helper()
	all := ComputeAll(a)
	viaMaps, maps := ComputeAllWithMaps(a)
	for v := int32(0); v < a.NumVertices(); v++ {
		if got := ScoreEvidence(a.Degree(v), maps[v]); got != all[v] || viaMaps[v] != all[v] {
			t.Fatalf("%s: vertex %d: ScoreEvidence %v / ComputeAllWithMaps %v != ComputeAll %v",
				name, v, got, viaMaps[v], all[v])
		}
		if got := EgoBetweenness(a, v, s); got != all[v] {
			t.Fatalf("%s: vertex %d: EgoBetweenness %v != ComputeAll %v", name, v, got, all[v])
		}
		if math.Signbit(all[v]) {
			t.Fatalf("%s: vertex %d: negative zero or negative score %v", name, v, all[v])
		}
		want := referenceMap(a, v)
		if (maps[v] == nil) != (want == nil) {
			t.Fatalf("%s: vertex %d: kernel map nil = %v, by definition nil = %v", name, v, maps[v] == nil, want == nil)
		}
		if want == nil {
			continue
		}
		if maps[v].Len() != want.Len() {
			t.Fatalf("%s: vertex %d: kernel map has %d entries, by definition %d", name, v, maps[v].Len(), want.Len())
		}
		want.Iterate(func(k uint64, c int32) bool {
			if got, ok := maps[v].Get(k); !ok || got != c {
				x, y := pairmap.Split(k)
				t.Fatalf("%s: vertex %d pair (%d,%d): kernel map (%d, %v), by definition %d", name, v, x, y, got, ok, c)
			}
			return true
		})
	}
	return all
}

// referenceMap builds the evidence map S_p straight from its definition, one
// neighbor pair at a time: a marker when the pair is adjacent, otherwise its
// connector count |N(u) ∩ N(v) ∩ N(p)| when that is positive; nil when no
// pair has an entry.
func referenceMap(a graph.View, p int32) *pairmap.Map {
	var m *pairmap.Map
	set := func(u, v, c int32) {
		if m == nil {
			m = pairmap.New()
		}
		m.Set(pairmap.Key(u, v), c)
	}
	nu := a.Neighbors(p)
	var comm []int32
	for i, u := range nu {
		for _, v := range nu[i+1:] {
			if a.HasEdge(u, v) {
				set(u, v, pairmap.Marker)
				continue
			}
			comm = nbr.IntersectInto(comm[:0], a.Neighbors(u), a.Neighbors(v))
			if c := nbr.IntersectCount(comm, nu); c > 0 {
				set(u, v, int32(c))
			}
		}
	}
	return m
}

// TestKernelOneScoreFold pins the single score fold: every exact path
// returns the same bits on the benchmark's two shapes at smoke scale, on a
// DynGraph after random churn, on the overlay chain that churn publishes,
// and on a degree-relabeled copy read back through Ext.
func TestKernelOneScoreFold(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 7),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 7),
	}
	s := NewScratch(0)
	for name, g := range shapes {
		base := assertKernelExact(t, name, g, s)

		rl := graph.DegreeRelabel(g)
		inner := assertKernelExact(t, name+"/relabeled", rl.G, s)
		for i, cb := range inner {
			if cb != base[rl.Ext[i]] {
				t.Fatalf("%s: internal %d (external %d): relabeled %v != %v",
					name, i, rl.Ext[i], cb, base[rl.Ext[i]])
			}
		}

		d := graph.DynFromGraph(g)
		rng := rand.New(rand.NewPCG(11, 13))
		var view graph.View = g
		for round := 0; round < 4; round++ {
			churn(d, rng, 300)
			view = d.FreezeOverlay(view)
			dyn := assertKernelExact(t, name+"/dyn", d, s)
			ov := assertKernelExact(t, name+"/overlay", view, s)
			for v := range dyn {
				if dyn[v] != ov[v] {
					t.Fatalf("%s round %d: vertex %d: dyn %v != overlay %v", name, round, v, dyn[v], ov[v])
				}
			}
		}
	}
}

// churn toggles up to count random vertex pairs of d: an edge that is present
// is deleted, an absent one inserted.
func churn(d *graph.DynGraph, rng *rand.Rand, count int) {
	n := d.NumVertices()
	for i := 0; i < count; i++ {
		u, v := rng.Int32N(n), rng.Int32N(n)
		if u == v {
			continue
		}
		if d.HasEdge(u, v) {
			_ = d.DeleteEdge(u, v) // present: cannot fail
		} else {
			_ = d.InsertEdge(u, v) // absent, distinct, in range: cannot fail
		}
	}
}

// kernelCases are the structured shapes of the differential test; n < 0
// infers the vertex count.
func kernelCases() map[string]*graph.Graph {
	cases := map[string]*graph.Graph{}
	clique := func(edges [][2]int32, ids ...int32) [][2]int32 {
		for i, u := range ids {
			for _, v := range ids[i+1:] {
				edges = append(edges, [2]int32{u, v})
			}
		}
		return edges
	}
	ids := func(lo, hi int32) []int32 {
		var out []int32
		for v := lo; v < hi; v++ {
			out = append(out, v)
		}
		return out
	}

	cases["clique"] = graph.MustFromEdges(-1, clique(nil, ids(0, 12)...))

	var star [][2]int32
	for v := int32(1); v <= 20; v++ {
		star = append(star, [2]int32{0, v})
	}
	cases["star"] = graph.MustFromEdges(-1, star)

	// Hub 0 joined to 8 cliques of sizes 2…9, plus two bridges between
	// cliques so some non-adjacent pairs have connectors.
	var hub [][2]int32
	next := int32(1)
	var firsts []int32
	for size := int32(2); size < 10; size++ {
		members := ids(next, next+size)
		hub = clique(hub, members...)
		for _, v := range members {
			hub = append(hub, [2]int32{0, v})
		}
		firsts = append(firsts, next)
		next += size
	}
	hub = append(hub, [2]int32{firsts[0], firsts[3]}, [2]int32{firsts[3], firsts[6]})
	cases["hub+cliques"] = graph.MustFromEdges(-1, hub)

	// Isolated vertices 5…7, a pendant path, and a triangle.
	cases["isolated+pendant"] = graph.MustFromEdges(8,
		[][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}})

	// Center 0 of degree 3 whose neighbors 1…3 each have degree ≈ 60 and
	// share many neighbors outside the ego, plus one edge inside it.
	big := [][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}}
	for w := int32(4); w < 64; w++ {
		big = append(big, [2]int32{1, w}, [2]int32{2, w}, [2]int32{3, w})
	}
	cases["small center, big neighbors"] = graph.MustFromEdges(-1, big)

	for seed := uint64(0); seed < 6; seed++ {
		n := int32(30 + 10*seed)
		p := 0.05 + 0.15*float64(seed)
		rng := rand.New(rand.NewPCG(seed, 0x6e70))
		var edges [][2]int32
		for u := int32(0); u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int32{u, v})
				}
			}
		}
		cases[fmt.Sprintf("gnp/%d", seed)] = graph.MustFromEdges(n, edges)
	}
	return cases
}

// assertKernelOracles checks the dense kernel against two independent
// implementations: the evidence maps by definition (assertKernelExact; same
// histogram, hence ==) and Brandes-style BFS path counting on the extracted
// ego network (ReferenceBFS; different float order, hence a tolerance).
func assertKernelOracles(t *testing.T, name string, g *graph.Graph, s *Scratch) {
	t.Helper()
	all := assertKernelExact(t, name, g, s)
	for v := int32(0); v < g.NumVertices(); v++ {
		if ref := ReferenceBFS(g, v); math.Abs(all[v]-ref) > 1e-9 {
			t.Fatalf("%s: vertex %d: kernel %v, BFS oracle %v", name, v, all[v], ref)
		}
	}
}

// TestKernelDifferential runs the oracles over the structured shapes.
func TestKernelDifferential(t *testing.T) {
	s := NewScratch(0)
	for name, g := range kernelCases() {
		assertKernelOracles(t, name, g, s)
	}
}

// fuzzGraph decodes bytes as an edge list over at most 48 vertices: the
// first byte picks n, every following pair of bytes is an edge (self-loops
// and duplicates are dropped by the builder).
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.MustFromEdges(0, nil)
	}
	n := int32(data[0]%48) + 1
	var edges [][2]int32
	for i := 1; i+1 < len(data); i += 2 {
		edges = append(edges, [2]int32{int32(data[i]) % n, int32(data[i+1]) % n})
	}
	return graph.MustFromEdges(n, edges)
}

// FuzzEgoKernel: on any edge list the dense kernel, the maps it emits, their
// definition and the BFS oracle agree, and nothing panics. Seed corpus in
// testdata/fuzz/FuzzEgoKernel.
func FuzzEgoKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0, 1, 3, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip()
		}
		assertKernelOracles(t, "fuzz", fuzzGraph(data), nil)
	})
}
