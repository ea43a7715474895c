// Package nbr is the shared neighborhood-intersection kernel layer. Two
// callers still bottom out in common-neighbor intersection over sorted
// adjacency lists: the dynamic maintainers' local repair scans (CommonInto,
// IntersectCount, and the Register for hub endpoints) and the graph
// package's triangle statistics. Everything per-ego — the kernel behind
// ComputeAll and its parallel Sweep, the evidence maps, the top-k searches
// and the sampled estimator — does not: it numbers the ego once and works
// on local ids (ego.Scratch.EgoCSR).
// This package implements the intersection core once, with three
// strategies selected adaptively:
//
//   - linear merge for size-balanced lists: one pass over both, O(|a|+|b|);
//   - galloping (exponential probe + binary search) when one list is much
//     longer than the other, O(|small| · log |large|);
//   - bitset registers for hub centers: the center's neighborhood is marked
//     once into a bitset, and every subsequent intersection against it costs
//     O(|other|) probes — amortizing the marking cost across all of the
//     center's pair scans.
//
// All three produce the identical ascending result set, so swapping one for
// another never changes any downstream score — the kernels differ only in
// how they walk the inputs, not in what they emit. Two Registers can also
// be counted against each other 64 vertices per machine word
// (Register.AndCount, with a one-bit-per-word summary that skips empty
// 64-word blocks); no algorithm routes through it any more — the benchmark
// keeps it as the nbr.hub_word_ns probe.
//
// The pairwise entry points (IntersectInto, IntersectCount, the view-level
// Common*) switch between linear and gallop on the length ratio
// (GallopRatio). They never mark a register: marking carries a cost that
// only a caller looping over many intersections of the same side can
// amortize, so such a caller — the Maintainer, for an endpoint of degree
// ≥ HubDegree — owns its registers and marks the hub side itself.
//
// The package is a leaf: it depends on nothing else in the repository, so
// every layer (graph, dynamic) can use it without import cycles.
// Register.Unmark is O(1) via an epoch counter, so reusing a register costs
// nothing even after marking millions of vertices.
package nbr
