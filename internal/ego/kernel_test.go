package ego

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

// assertKernelExact checks, with == and no tolerance, that the exact paths
// agree on every vertex of a: the dense kernel loop (ComputeAll), the
// kernel-emitted evidence maps scored by ScoreEvidence with the adjacent
// pairs the definition counts, and the per-vertex
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
		want, adjacent := referenceMap(a, v)
		if got := ScoreEvidence(a.Degree(v), adjacent, maps[v]); got != all[v] || viaMaps[v] != all[v] {
			t.Fatalf("%s: vertex %d: ScoreEvidence %v / ComputeAllWithMaps %v != ComputeAll %v",
				name, v, got, viaMaps[v], all[v])
		}
		if got := EgoBetweenness(a, v, s); got != all[v] {
			t.Fatalf("%s: vertex %d: EgoBetweenness %v != ComputeAll %v", name, v, got, all[v])
		}
		if math.Signbit(all[v]) {
			t.Fatalf("%s: vertex %d: negative zero or negative score %v", name, v, all[v])
		}
		if (maps[v] == nil) != (want == nil) {
			t.Fatalf("%s: vertex %d: kernel map nil = %v, by definition nil = %v", name, v, maps[v] == nil, want == nil)
		}
		if want == nil {
			continue
		}
		maps[v].Iterate(func(k uint64, c int32) bool {
			if _, ok := want.Get(k); !ok {
				x, y := pairmap.Split(k)
				t.Fatalf("%s: vertex %d pair (%d,%d): kernel map holds %d, by definition no entry", name, v, x, y, c)
			}
			return true
		})
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
// neighbor pair at a time: an adjacent pair is counted in adjacent, a
// non-adjacent one gets its connector count |N(u) ∩ N(v) ∩ N(p)| when that is
// positive; the map is nil when no pair has an entry.
func referenceMap(a graph.View, p int32) (m *pairmap.Map, adjacent int64) {
	nu := a.Neighbors(p)
	var comm []int32
	for i, u := range nu {
		for _, v := range nu[i+1:] {
			if slices.Contains(a.Neighbors(u), v) {
				adjacent++
				continue
			}
			comm = nbr.IntersectInto(comm[:0], a.Neighbors(u), a.Neighbors(v))
			if c := nbr.IntersectCount(comm, nu); c > 0 {
				if m == nil {
					m = pairmap.New()
				}
				m.Set(pairmap.Key(u, v), int32(c))
			}
		}
	}
	return m, adjacent
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

// TestKernelFoldBeyondTable reaches the fold's in-place term: an apex
// joined to every vertex of K_{2,1100} holds the two hubs as a non-adjacent
// pair with 1100 connectors, past foldTerms. The per-vertex kernel, both
// folds of the evidence it emits and a split Sweep agree with ==; the
// apex's score is C(1100, 2)/3 + 1/1101 within 1e-9, and every score is the
// BFS oracle's within 1e-9 — the oracle's compensated sum over the apex's
// 604 450 leaf-pair terms stays that close to the exact value.
func TestKernelFoldBeyondTable(t *testing.T) {
	const m = 1100
	g := apexOverK2m(m)
	n := g.NumVertices()
	swept := make([]float64, n)
	set := func(v int32, cb float64) { swept[v] = cb }
	Sweep(g, 2, func(v int32, s *Scratch) { set(v, EgoBetweenness(g, v, s)) }, set)
	s := NewScratch(0)
	for v := int32(0); v < n; v++ {
		cb := EgoBetweenness(g, v, s)
		_, sm, hist := EgoBetweennessWithMap(g, v, s) // every ego here has an adjacent pair
		d := g.Degree(v)
		if ev, fold := ScoreEvidence(d, hist[0], sm), FoldScore(d, hist); ev != cb || fold != cb || swept[v] != cb {
			t.Fatalf("vertex %d: kernel %v, ScoreEvidence %v, FoldScore %v, split Sweep %v", v, cb, ev, fold, swept[v])
		}
		if ref := ReferenceBFS(g, v); math.Abs(cb-ref) > 1e-9 {
			t.Fatalf("vertex %d: kernel %v, BFS oracle %v", v, cb, ref)
		}
		if v != 0 {
			continue
		}
		if len(hist) != m+1 || hist[m] != 1 || m < len(foldTerms) {
			t.Fatalf("apex histogram has %d buckets, want one pair at %d connectors, past foldTerms (%d)", len(hist), m, len(foldTerms))
		}
		if want := float64(m*(m-1)/2)/3 + 1/float64(m+1); math.Abs(cb-want) > 1e-9 {
			t.Fatalf("apex: kernel %v, closed form %v", cb, want)
		}
	}
}

// apexOverK2m is an apex 0 joined to every vertex of K_{2,m}: hubs 1 and 2,
// leaves 3…m+2. The apex's ego has degree m+2 and mixed adjacency — each
// hub is adjacent to every leaf, the hubs and the leaves are not adjacent
// among themselves, the two hubs have m connectors and two leaves two.
func apexOverK2m(m int32) *graph.Graph {
	edges := [][2]int32{{0, 1}, {0, 2}}
	for l := int32(3); l < m+3; l++ {
		edges = append(edges, [2]int32{0, l}, [2]int32{1, l}, [2]int32{2, l})
	}
	return graph.MustFromEdges(-1, edges)
}

// fuzzGraph decodes bytes as an edge list over at most 128 vertices: the
// first byte picks n, every following pair of bytes is an edge (self-loops
// and duplicates are dropped by the builder). 128 vertices reach egos on
// both sides of the counting pass's one-word cutoff, d ≤ 64.
func fuzzGraph(data []byte) *graph.Graph {
	if len(data) == 0 {
		return graph.MustFromEdges(0, nil)
	}
	n := int32(data[0]%128) + 1
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
