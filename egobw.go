// Package egobw is a Go implementation of "Efficient Top-k Ego-Betweenness
// Search" (Zhang, Li, Pan, Dai, Wang, Yuan — ICDE 2022, arXiv:2107.10052).
//
// The ego-betweenness CB(p) of a vertex p measures how often p sits on
// shortest paths between its own neighbors inside its ego network — a cheap,
// highly correlated stand-in for classic betweenness centrality. This
// package exposes the paper's full toolkit:
//
//   - exact ego-betweenness for one vertex or all vertices;
//   - the two top-k search algorithms, BaseBSearch (static Lemma 2 bound)
//     and OptBSearch (dynamic Lemma 3 bound with the gradient ratio θ);
//   - dynamic maintenance under edge insertions/deletions, both exact for
//     all vertices (LocalInsert/LocalDelete) and lazily for just the top-k
//     (LazyInsert/LazyDelete);
//   - two parallel all-vertices algorithms (VertexPEBW, EdgePEBW);
//   - Brandes' exact betweenness top-k (TopBW) as the effectiveness baseline;
//   - seeded graph generators and the benchmark dataset registry.
//
// # Quickstart
//
//	g, err := egobw.NewGraph(-1, edges)             // or LoadEdgeListFile(path)
//	top, stats := egobw.TopK(g, 10)                 // OptBSearch, θ = 1.05
//	for _, r := range top {
//		fmt.Println(r.V, r.CB)
//	}
//
// See examples/ for runnable walkthroughs and DESIGN.md for the
// architecture and the paper-reproduction notes. For serving these
// queries over HTTP while edge updates stream in, see internal/server
// and the cmd/egobwd daemon.
package egobw

import (
	"io"
	"os"

	"repro/internal/brandes"
	"repro/internal/dynamic"
	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Graph is an immutable undirected graph in CSR form. Construct with
// NewGraph, LoadEdgeListFile, or the generators in this package.
type Graph = graph.Graph

// DynGraph is the mutable graph representation used by the maintainers.
type DynGraph = graph.DynGraph

// GraphStats summarizes a graph (Table I style).
type GraphStats = graph.Stats

// Result is a vertex paired with its (ego-)betweenness score.
type Result = ego.Result

// SearchStats reports the work a top-k search performed: exact computations,
// pruned vertices, bound refreshes.
type SearchStats = ego.SearchStats

// Maintainer keeps exact ego-betweennesses for every vertex under edge
// updates (the paper's LocalInsert / LocalDelete).
type Maintainer = dynamic.Maintainer

// LazyTopK maintains just the top-k result set under edge updates (the
// paper's LazyInsert / LazyDelete).
type LazyTopK = dynamic.LazyTopK

// Strategy selects the parallel work partitioning.
type Strategy = parallel.Strategy

// ParallelStats reports per-run parallel behavior, including the
// machine-independent load-balance measures.
type ParallelStats = parallel.Stats

// Parallel strategies (Section V of the paper).
const (
	VertexPEBW = parallel.VertexPEBW
	EdgePEBW   = parallel.EdgePEBW
)

// DefaultTheta is the paper's default gradient ratio for OptBSearch.
const DefaultTheta = ego.DefaultTheta

// NewGraph builds a graph over n vertices from an undirected edge list;
// self-loops are dropped and duplicates collapsed. Pass n < 0 to infer the
// vertex count from the largest endpoint.
func NewGraph(n int32, edges [][2]int32) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// LoadEdgeListFile parses the SNAP-style text format at path: "u v" per
// line, '#'/'%' comments.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// SaveEdgeList writes g in the format accepted by LoadEdgeListFile.
func SaveEdgeList(w io.Writer, g *Graph) error {
	return graph.WriteEdgeList(w, g)
}

// Stats computes summary statistics for g, including the triangle count.
func Stats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// EgoBetweenness computes the exact CB of a single vertex with the dense
// per-ego kernel, in O(Σ_{v∈N(u)} d(v) + Σ_v |N(v)∩N(u)|²) array steps,
// without touching the rest of the graph.
func EgoBetweenness(g *Graph, v int32) float64 {
	return ego.EgoBetweenness(g, v, nil)
}

// ComputeAll computes the exact ego-betweenness of every vertex: the
// per-ego kernel on up to GOMAXPROCS cores (ComputeAllParallel's VertexPEBW
// sweep), O(d_max + largest ego network) working memory per worker, and the
// same bits on any number of cores.
func ComputeAll(g *Graph) []float64 {
	cb, _ := parallel.ComputeAll(g, 0, VertexPEBW)
	return cb
}

// ComputeAllParallel computes all ego-betweennesses with t workers using the
// chosen strategy; t ≤ 0 selects GOMAXPROCS.
func ComputeAllParallel(g *Graph, t int, s Strategy) ([]float64, ParallelStats) {
	return parallel.ComputeAll(g, t, s)
}

// options configures TopK.
type options struct {
	useBase bool
	theta   float64
}

// Option customizes TopK.
type Option func(*options)

// WithBaseSearch selects BaseBSearch (Algorithm 1) instead of the default
// OptBSearch.
func WithBaseSearch() Option { return func(o *options) { o.useBase = true } }

// WithTheta sets OptBSearch's gradient ratio θ ≥ 1 (default 1.05).
func WithTheta(theta float64) Option { return func(o *options) { o.theta = theta } }

// TopK returns the k vertices with the highest ego-betweennesses, sorted by
// descending score (ties by ascending id); k ≤ 0 returns none. The default
// algorithm is OptBSearch with θ = 1.05; see the Options to switch. Either
// search runs upcoming candidates' kernels on up to GOMAXPROCS cores, with
// the same answer and SearchStats on any number.
func TopK(g *Graph, k int, opts ...Option) ([]Result, SearchStats) {
	o := options{theta: DefaultTheta}
	for _, fn := range opts {
		fn(&o)
	}
	if o.useBase {
		return ego.BaseBSearch(g, k)
	}
	return ego.OptBSearch(g, k, o.theta)
}

// NewMaintainer builds the exact all-vertices maintainer from a snapshot on
// up to GOMAXPROCS cores, the same bits on any number.
func NewMaintainer(g *Graph) *Maintainer { return dynamic.NewMaintainer(g) }

// NewLazyTopK builds the lazy top-k maintainer (an empty result set for
// k ≤ 0) from a snapshot on up to GOMAXPROCS cores, the same bits on any
// number.
func NewLazyTopK(g *Graph, k int) *LazyTopK { return dynamic.NewLazyTopK(g, k) }

// BetweennessTopK returns the top-k by classic betweenness, computed with t
// parallel workers (TopBW in the paper).
func BetweennessTopK(g *Graph, k, t int) []Result { return brandes.TopK(g, k, t) }

// Overlap returns |A ∩ B| / max(|A|,|B|) over two result lists' vertex sets,
// the effectiveness metric of the paper's Fig. 11/12.
func Overlap(a, b []Result) float64 { return ego.Overlap(a, b) }
