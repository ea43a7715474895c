// Package nbr is the shared neighborhood-intersection kernel layer. Two
// callers still bottom out in common-neighbor intersection over sorted
// adjacency lists: the dynamic maintainers' local repair scans (CommonInto,
// IntersectCount, and the Register for the endpoints' neighborhoods) and
// the graph package's triangle statistics. Everything per-ego — the kernel
// behind ComputeAll and its parallel Sweep, the evidence maps, the top-k
// searches and the sampled estimator — does not: it numbers the ego once
// and works on local ids (ego.Scratch.EgoCSR).
// This package implements the intersection core once: two list kernels
// selected on the length ratio, and one register.
//
//   - linear merge for size-balanced lists: one pass over both, O(|a|+|b|);
//   - galloping (exponential probe + binary search) when one list is much
//     longer than the other, O(|small| · log |large|);
//   - a bitset Register for a fixed side scanned against many lists: it is
//     marked once, and every subsequent intersection against it costs
//     O(|other|) word loads — amortizing the marking cost across all of
//     that side's scans.
//
// All three produce the identical ascending result set, so swapping one for
// another never changes any downstream score — the kernels differ only in
// how they walk the inputs, not in what they emit. Two Registers can also
// be counted against each other 64 vertices per machine word
// (Register.AndCount, over the shorter register's marked words); no
// algorithm routes through it any more — the benchmark keeps it as the
// nbr.hub_word_ns probe.
//
// The pairwise entry points (IntersectInto, IntersectCount, the view-level
// Common*) switch between linear and gallop on the length ratio
// (GallopRatio). They never mark a register: marking carries a cost that
// only a caller looping over many intersections of the same side can
// amortize, so such a caller — the Maintainer, for both endpoints of an
// update with common neighbors — owns its registers and marks them itself.
// Unmark zeroes only the words Mark set, so reusing a register costs
// O(marked words), never O(n).
//
// The package is a leaf: it depends on nothing else in the repository, so
// every layer (graph, dynamic) can use it without import cycles.
package nbr
