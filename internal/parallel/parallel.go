package parallel

import (
	"runtime"
	"time"

	"repro/internal/ego"
	"repro/internal/graph"
)

// Strategy selects the work-partitioning scheme.
type Strategy int

const (
	// VertexPEBW partitions work by vertex (Section V-A): a unit is a whole
	// ego.
	VertexPEBW Strategy = iota
	// EdgePEBW partitions work by edge chunks (Section V-B): an ego heavier
	// than an even share is cut into chunks of its edges.
	EdgePEBW
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	if s == VertexPEBW {
		return "VertexPEBW"
	}
	return "EdgePEBW"
}

// Stats reports per-run parallel behavior. Work is counted in the per-ego
// kernel's steps (ego.Scratch.Price), so TotalWork is the same for both
// strategies at any worker count.
type Stats struct {
	Threads       int
	Strategy      Strategy
	WorkPerWorker []int64 // kernel steps executed by each worker
	Elapsed       time.Duration
	TotalWork     int64 // kernel steps over the whole run
	MaxUnitWork   int64 // heaviest indivisible work unit (ego or ego chunk)
}

// SpeedupBound returns the best speedup achievable with t workers given the
// partitioning granularity: total work divided by the larger of an even
// share and the heaviest indivisible unit — the machine-independent form of
// the paper's Fig. 10 comparison. (Wall-clock speedup additionally requires
// the host to have t physical CPUs; see DESIGN.md §5.)
func (s Stats) SpeedupBound(t int) float64 {
	if s.TotalWork == 0 {
		return 1
	}
	return float64(s.TotalWork) / max(float64(s.TotalWork)/float64(t), float64(s.MaxUnitWork))
}

// ComputeAll computes every vertex's exact ego-betweenness with t workers
// using the given strategy; t ≤ 0 selects GOMAXPROCS. It is one ego.Sweep,
// splitting heavy egos under EdgePEBW, and the result is bit-identical to
// the sequential ego.ComputeAll at any worker count.
func ComputeAll(g *graph.Graph, t int, strategy Strategy) ([]float64, Stats) {
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	cb := make([]float64, g.NumVertices())
	var split func(v int32, x float64)
	if strategy == EdgePEBW {
		split = func(v int32, x float64) { cb[v] = x }
	}
	st := Stats{Threads: t, Strategy: strategy}
	each := func(v int32, s *ego.Scratch) { cb[v] = ego.EgoBetweenness(g, v, s) }
	st.WorkPerWorker, st.MaxUnitWork = ego.Sweep(g, t, each, split)
	for _, x := range st.WorkPerWorker {
		st.TotalWork += x
	}
	st.Elapsed = time.Since(start)
	return cb, st
}
