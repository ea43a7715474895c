// Package dynamic implements Section IV of the paper: maintaining
// ego-betweenness under edge insertions and deletions. Only the vertices of
// Observation 1 — the two endpoints and their common neighbors
// L = N(u) ∩ N(v) — are touched.
//
//   - Maintainer keeps every vertex's score in one of two forms. The
//     map-holding form is the "local update" (Algorithms 4-5): evidence maps
//     S_v and their connector-count histograms, repaired by the Lemma 4-7
//     integer moves and refolded with the kernel's fold (ego.FoldScore), so
//     every score is the kernel's to the bit. The map-free form keeps t(v)
//     alone and leaves the touched vertices stale under d(d−1)/2 − t(v).
//
//   - LazyTopK ("lazy update", Algorithm 6): maintains only the top-k result
//     set plus per-vertex cached scores with staleness flags, recomputing a
//     vertex from scratch only when it could actually affect the top-k.
//
// See DESIGN.md §4 for the two corrections applied to the published
// Algorithm 6 pseudocode (loop termination, and keeping stale cached scores
// upper bounds so the (k+1)-th candidate selection stays sound).
package dynamic
