// Package graph provides the graph substrate used by every algorithm in this
// repository: an immutable CSR (compressed sparse row) representation for the
// static algorithms, a mutable adjacency-list representation for the dynamic
// maintenance algorithms, the degree-based total order ≺ from the paper, the
// oriented graph G+ used for once-per-triangle processing,
// sorted-set intersection kernels, edge-list IO, and subgraph sampling for the
// scalability experiments.
//
// Vertices are dense int32 identifiers in [0, NumVertices). Graphs are
// undirected, unweighted, with no self-loops and no parallel edges; builders
// enforce this by removing self-loops and deduplicating.
package graph
