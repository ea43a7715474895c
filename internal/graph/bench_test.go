package graph

import (
	"math/rand/v2"
	"testing"

	"repro/internal/nbr"
)

// Ablation: merge vs galloping intersection, the kernel choice DESIGN.md
// calls out. On lopsided inputs (hub list vs leaf list) galloping should
// win; on balanced inputs plain merging should.

func sortedRandom(n int, max int32, seed uint64) []int32 {
	rng := rand.New(rand.NewPCG(seed, 0))
	seen := map[int32]bool{}
	out := make([]int32, 0, n)
	for len(out) < n {
		v := rng.Int32N(max)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sortInt32(out)
	return out
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

func BenchmarkIntersectBalanced(b *testing.B) {
	x := sortedRandom(1000, 10000, 1)
	y := sortedRandom(1000, 10000, 2)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = nbr.IntersectInto(dst[:0], x, y)
	}
}

func BenchmarkIntersectLopsided(b *testing.B) {
	small := sortedRandom(20, 100000, 3)
	big := sortedRandom(20000, 100000, 4)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = nbr.IntersectInto(dst[:0], small, big)
	}
}

// BenchmarkIntersectLopsidedMergeOnly forces the merge path on the same
// lopsided input for comparison, by slicing under the galloping threshold.
func BenchmarkIntersectLopsidedMergeOnly(b *testing.B) {
	small := sortedRandom(20, 100000, 3)
	big := sortedRandom(20000, 100000, 4)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Plain two-pointer merge, inlined.
		n = 0
		j, k := 0, 0
		for j < len(small) && k < len(big) {
			switch {
			case small[j] < big[k]:
				j++
			case small[j] > big[k]:
				k++
			default:
				n++
				j++
				k++
			}
		}
	}
	_ = n
}

func BenchmarkOrient(b *testing.B) {
	g := buildBenchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Orient(g)
	}
}

func buildBenchGraph() *Graph {
	rng := rand.New(rand.NewPCG(9, 9))
	edges := make([][2]int32, 0, 5000)
	for len(edges) < 5000 {
		u, v := rng.Int32N(1000), rng.Int32N(1000)
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	g, err := FromEdges(1000, edges)
	if err != nil {
		panic(err)
	}
	return g
}
