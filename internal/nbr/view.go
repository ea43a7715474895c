package nbr

// View is the neighbor-slice access the kernels need from a graph
// representation. It is satisfied structurally by graph.View — the frozen
// CSR, the copy-on-write overlay, and the mutable dynamic graph — without
// this package importing the graph package (graph itself builds on nbr).
// Implementations must return sorted ascending neighbor lists that the
// kernels may read but never modify.
type View interface {
	Degree(v int32) int32
	Neighbors(v int32) []int32
}

// CommonInto appends N(u) ∩ N(v) of the view to dst and returns the
// extended slice, dispatching on the adaptive merge/gallop kernels. It is
// the view-level entry point the maintainers use so they run identically on
// any representation.
func CommonInto(dst []int32, g View, u, v int32) []int32 {
	return IntersectInto(dst, g.Neighbors(u), g.Neighbors(v))
}

// CommonCount returns |N(u) ∩ N(v)| without materializing the intersection.
func CommonCount(g View, u, v int32) int {
	return IntersectCount(g.Neighbors(u), g.Neighbors(v))
}
