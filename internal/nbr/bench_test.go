package nbr

import (
	"math/rand/v2"
	"testing"
)

// benchLists builds a hub list of n elements and k leaf lists of m elements
// with partial overlap, the shape of a hub vertex's pair scans.
func benchLists(n, k, m int) ([]int32, [][]int32) {
	rng := rand.New(rand.NewPCG(3, 3))
	span := int32(4 * n)
	hub := sortedList(rng, n, span)
	leaves := make([][]int32, k)
	for i := range leaves {
		leaves[i] = sortedList(rng, m, span)
	}
	return hub, leaves
}

// BenchmarkLinearMergeHub is the pre-refactor baseline on the hub shape:
// the plain merge walks the full hub list for every leaf.
func BenchmarkLinearMergeHub(b *testing.B) {
	hub, leaves := benchLists(8192, 64, 64)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, leaf := range leaves {
			dst = linearInto(dst[:0], leaf, hub)
		}
	}
}

// BenchmarkGallopHub measures the galloping kernel on the same shape.
func BenchmarkGallopHub(b *testing.B) {
	hub, leaves := benchLists(8192, 64, 64)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, leaf := range leaves {
			dst = gallopInto(dst[:0], leaf, hub)
		}
	}
}

// BenchmarkRegisterHub measures the bitset kernel: mark the hub once,
// probe every leaf — the per-center amortization the maintainer's endpoint
// scans use.
func BenchmarkRegisterHub(b *testing.B) {
	hub, leaves := benchLists(8192, 64, 64)
	reg := NewRegister(4 * 8192)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Mark(hub)
		for _, leaf := range leaves {
			dst = reg.IntersectInto(dst[:0], leaf)
		}
		reg.Unmark()
	}
}

// BenchmarkAdaptiveBalanced measures IntersectInto on size-balanced lists,
// where the dispatch stays on the linear merge.
func BenchmarkAdaptiveBalanced(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	x := sortedList(rng, 256, 1024)
	y := sortedList(rng, 256, 1024)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectInto(dst[:0], x, y)
	}
}

// BenchmarkAdaptiveSkewed measures IntersectInto on 32×-skewed lists, where
// the dispatch selects galloping.
func BenchmarkAdaptiveSkewed(b *testing.B) {
	rng := rand.New(rand.NewPCG(6, 6))
	small := sortedList(rng, 64, 1<<16)
	large := sortedList(rng, 64*32, 1<<16)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectInto(dst[:0], small, large)
	}
}
