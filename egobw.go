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
//   - Brandes' exact betweenness as the effectiveness baseline;
//   - seeded graph generators and the benchmark dataset registry.
//
// # Quickstart
//
//	g, err := egobw.NewGraph(-1, edges)             // or LoadEdgeList(r)
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
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Graph is an immutable undirected graph in CSR form. Construct with
// NewGraph, LoadEdgeList, or the generators in this package.
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
const DefaultTheta = 1.05

// NewGraph builds a graph over n vertices from an undirected edge list;
// self-loops are dropped and duplicates collapsed. Pass n < 0 to infer the
// vertex count from the largest endpoint.
func NewGraph(n int32, edges [][2]int32) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// LoadEdgeList parses the SNAP-style text format: "u v" per line, '#'/'%'
// comments.
func LoadEdgeList(r io.Reader) (*Graph, error) {
	return graph.ReadEdgeList(r)
}

// LoadEdgeListFile is LoadEdgeList over a file path.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f)
}

// SaveEdgeList writes g in the format accepted by LoadEdgeList.
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

// ComputeAll computes the exact ego-betweenness of every vertex: one pass
// of the per-ego kernel per vertex, O(d_max + largest ego network) working
// memory.
func ComputeAll(g *Graph) []float64 { return ego.ComputeAll(g) }

// ComputeAllParallel computes all ego-betweennesses with t workers using the
// chosen strategy; t ≤ 0 selects GOMAXPROCS.
func ComputeAllParallel(g *Graph, t int, s Strategy) ([]float64, ParallelStats) {
	return parallel.ComputeAll(g, t, s)
}

// options configures TopK.
type options struct {
	useBase bool
	theta   float64
	stats   *SearchStats
}

// Option customizes TopK.
type Option func(*options)

// WithBaseSearch selects BaseBSearch (Algorithm 1) instead of the default
// OptBSearch.
func WithBaseSearch() Option { return func(o *options) { o.useBase = true } }

// WithTheta sets OptBSearch's gradient ratio θ ≥ 1 (default 1.05).
func WithTheta(theta float64) Option { return func(o *options) { o.theta = theta } }

// WithStats captures the search statistics into st.
func WithStats(st *SearchStats) Option { return func(o *options) { o.stats = st } }

// TopK returns the k vertices with the highest ego-betweennesses, sorted by
// descending score (ties by ascending id). The default algorithm is
// OptBSearch with θ = 1.05; see the Options to switch.
func TopK(g *Graph, k int, opts ...Option) ([]Result, SearchStats) {
	o := options{theta: DefaultTheta}
	for _, fn := range opts {
		fn(&o)
	}
	var res []Result
	var st SearchStats
	if o.useBase {
		res, st = ego.BaseBSearch(g, k)
	} else {
		res, st = ego.OptBSearch(g, k, o.theta)
	}
	if o.stats != nil {
		*o.stats = st
	}
	return res, st
}

// NewMaintainer builds the exact all-vertices maintainer from a snapshot.
func NewMaintainer(g *Graph) *Maintainer { return dynamic.NewMaintainer(g) }

// NewLazyTopK builds the lazy top-k maintainer from a snapshot.
func NewLazyTopK(g *Graph, k int) *LazyTopK { return dynamic.NewLazyTopK(g, k) }

// Betweenness computes classic exact betweenness centrality (Brandes'
// algorithm, O(nm)) — the paper's effectiveness baseline.
func Betweenness(g *Graph) []float64 { return brandes.Betweenness(g) }

// BetweennessTopK returns the top-k by classic betweenness, computed with t
// parallel workers (TopBW in the paper).
func BetweennessTopK(g *Graph, k, t int) []Result { return brandes.TopK(g, k, t) }

// BetweennessApprox estimates betweenness from `pivots` sampled BFS sources
// (Brandes–Pich pivot sampling), scaled to be comparable with exact values;
// the cheap classic-betweenness alternative the effectiveness ablation
// compares ego-betweenness against.
func BetweennessApprox(g *Graph, pivots int, seed uint64, t int) []float64 {
	return brandes.BetweennessApprox(g, pivots, seed, t)
}

// Overlap returns |A ∩ B| / max(|A|,|B|) over two result lists' vertex sets,
// the effectiveness metric of the paper's Fig. 11/12.
func Overlap(a, b []Result) float64 { return ego.Overlap(a, b) }

// Jaccard returns |A ∩ B| / |A ∪ B| over two result lists' vertex sets.
func Jaccard(a, b []Result) float64 {
	return metrics.Jaccard(resultIDs(a), resultIDs(b))
}

// SpearmanRho returns the tie-aware Spearman rank correlation between two
// full score vectors (for example ComputeAll versus Betweenness output),
// extending the paper's overlap-based effectiveness analysis to whole
// rankings.
func SpearmanRho(x, y []float64) (float64, error) { return metrics.SpearmanRho(x, y) }

func resultIDs(rs []Result) []int32 {
	ids := make([]int32, len(rs))
	for i, r := range rs {
		ids[i] = r.V
	}
	return ids
}
