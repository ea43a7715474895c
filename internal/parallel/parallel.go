package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/pairmap"
)

// Strategy selects the work-partitioning scheme.
type Strategy int

const (
	// VertexPEBW partitions work by vertex (Section V-A).
	VertexPEBW Strategy = iota
	// EdgePEBW partitions work by edge chunks (Section V-B).
	EdgePEBW
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	if s == VertexPEBW {
		return "VertexPEBW"
	}
	return "EdgePEBW"
}

// Stats reports per-run parallel behavior.
type Stats struct {
	Threads       int
	Strategy      Strategy
	WorkPerWorker []int64 // credit+marker operations executed by each worker
	BusyPerWorker []time.Duration
	Elapsed       time.Duration
	TotalWork     int64 // credit+marker operations over the whole run
	MaxUnitWork   int64 // heaviest indivisible work unit (vertex or edge chunk)
}

// SpeedupBound returns the best speedup achievable with t workers given the
// partitioning granularity: total work divided by the larger of an even
// share and the heaviest indivisible unit. This is the machine-independent
// form of the paper's Fig. 10 comparison — on a skewed graph VertexPEBW's
// hub vertices cap its bound well below t, while EdgePEBW's fixed chunks
// keep the bound near t. (Wall-clock speedup additionally requires the host
// to have t physical CPUs; see DESIGN.md §5.)
func (s Stats) SpeedupBound(t int) float64 {
	if s.TotalWork == 0 {
		return 1
	}
	share := float64(s.TotalWork) / float64(t)
	if m := float64(s.MaxUnitWork); m > share {
		share = m
	}
	return float64(s.TotalWork) / share
}

// Imbalance returns max/mean of per-worker work — 1.0 is perfect balance.
// This is the machine-independent quantity behind the paper's Fig. 10
// speedup gap between the two strategies.
func (s Stats) Imbalance() float64 {
	if len(s.WorkPerWorker) == 0 {
		return 1
	}
	var sum, maxW int64
	for _, w := range s.WorkPerWorker {
		sum += w
		if w > maxW {
			maxW = w
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.WorkPerWorker))
	return float64(maxW) / mean
}

const (
	stripeCount = 1 << 12 // striped mutexes guarding evidence maps
	edgeChunk   = 256     // edges claimed per cursor increment in EdgePEBW
)

// workerScratch is the per-worker reusable state: the common-neighborhood
// buffer, the collected non-adjacent pair keys of the edge in flight, and
// the intersection scratch nonAdjacentPairs collects them through.
// Keeping them on the worker (instead of per processEdge call) makes the
// steady path allocation-free once the buffers have warmed to the graph's
// degree profile.
type workerScratch struct {
	comm  []int32
	pairs []uint64
	adj   []int32
}

// nonAdjacentPairs appends to pairs the pairmap keys of the non-adjacent
// pairs of comm — an edge's common neighborhood, ascending — in (i, j)
// order: the pairs that edge connects, credited to both its endpoints. comm
// is ascending, so the later members adjacent to comm[i] come out of one
// sorted intersection with its neighbor list instead of a HasEdge probe per
// pair. Both buffers are the caller's: pairs is extended, adj is scratch
// for the intersections; both come back, possibly regrown.
func nonAdjacentPairs(g *graph.Graph, comm []int32, pairs []uint64, adj []int32) ([]uint64, []int32) {
	for i := 0; i+1 < len(comm); i++ {
		p, rest := comm[i], comm[i+1:]
		adj = nbr.IntersectInto(adj[:0], rest, g.Neighbors(p))
		hit := adj
		for _, q := range rest {
			if len(hit) > 0 && hit[0] == q {
				hit = hit[1:]
				continue
			}
			pairs = append(pairs, pairmap.Key(p, q))
		}
	}
	return pairs, adj
}

// ComputeAll computes every vertex's exact ego-betweenness with t workers
// using the given strategy. t ≤ 0 selects GOMAXPROCS. The result is
// bit-identical to the sequential ego.ComputeAll at any worker count: the
// workers only fill integer evidence maps (edgePass), and ego.ScoreEvidence
// folds each map's histogram in one canonical order.
func ComputeAll(g *graph.Graph, t int, strategy Strategy) ([]float64, Stats) {
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	maps, st := edgePass(g, t, strategy)

	// Scoring phase: read-only over completed maps, embarrassingly parallel.
	n := g.NumVertices()
	cb := make([]float64, n)
	var cursor atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < t; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := cursor.Add(1) - 1
				if v >= n {
					break
				}
				cb[v] = ego.ScoreEvidence(g.Degree(v), maps[v])
			}
		}()
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	return cb, st
}

// edgePass is the paper's once-per-edge evidence pass under t workers: every
// undirected edge (a, b), owned by its ≺-earlier endpoint, marks the pair
// (a, b) adjacent in the map of every common neighbor and credits one
// connector to every non-adjacent pair of N(a) ∩ N(b) in the maps of a and
// b. A credit (center, pair, connector) is produced only by the edge
// (center, connector), so once every edge is processed each map is exact. It
// returns the completed maps — maps[v] is nil when v accumulated no evidence
// — and the work statistics (Elapsed is the caller's to set).
func edgePass(g *graph.Graph, t int, strategy Strategy) ([]*pairmap.Map, Stats) {
	n := g.NumVertices()
	st := Stats{
		Threads:       t,
		Strategy:      strategy,
		WorkPerWorker: make([]int64, t),
		BusyPerWorker: make([]time.Duration, t),
	}

	o := graph.Orient(g)
	maps := make([]*pairmap.Map, n)
	var mapInit sync.Mutex // guards lazy map allocation distinctly from stripes
	stripes := make([]sync.Mutex, stripeCount)

	mapFor := func(v int32) *pairmap.Map {
		if m := maps[v]; m != nil {
			return m
		}
		mapInit.Lock()
		m := maps[v]
		if m == nil {
			m = pairmap.NewWithCapacity(int(g.Degree(v)))
			maps[v] = m
		}
		mapInit.Unlock()
		return m
	}
	lockOf := func(v int32) *sync.Mutex { return &stripes[uint32(v)%stripeCount] }

	// processEdge applies the markers and credits of one undirected edge:
	// the mutation set per call touches each target vertex under its own
	// stripe, one lock at a time (no nesting → no deadlock). All scratch
	// lives on the worker, so the steady path allocates nothing.
	processEdge := func(a, b int32, ws *workerScratch, work *int64) {
		ws.comm = nbr.IntersectInto(ws.comm[:0], g.Neighbors(a), g.Neighbors(b))
		key := pairmap.Key(a, b)
		for _, w := range ws.comm {
			mu := lockOf(w)
			mu.Lock()
			mapFor(w).SetMarker(key)
			mu.Unlock()
			*work++
		}
		// Collect the non-adjacent pairs once, then apply per endpoint
		// under a single lock each.
		ws.pairs, ws.adj = nonAdjacentPairs(g, ws.comm, ws.pairs[:0], ws.adj)
		if len(ws.pairs) > 0 {
			for _, end := range [2]int32{a, b} {
				mu := lockOf(end)
				mu.Lock()
				m := mapFor(end)
				for _, pk := range ws.pairs {
					m.Add(pk, 1)
				}
				mu.Unlock()
			}
			*work += int64(2 * len(ws.pairs))
		}
	}

	var wg sync.WaitGroup
	var maxUnit atomic.Int64
	bumpMax := func(unit int64) {
		for {
			cur := maxUnit.Load()
			if unit <= cur || maxUnit.CompareAndSwap(cur, unit) {
				return
			}
		}
	}
	switch strategy {
	case VertexPEBW:
		var cursor atomic.Int32
		for w := 0; w < t; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				t0 := time.Now()
				var ws workerScratch
				for {
					v := cursor.Add(1) - 1
					if v >= n {
						break
					}
					var unit int64
					for _, x := range o.OutNeighbors(v) {
						processEdge(v, x, &ws, &unit)
					}
					st.WorkPerWorker[id] += unit
					bumpMax(unit)
				}
				st.BusyPerWorker[id] = time.Since(t0)
			}(w)
		}
	case EdgePEBW:
		edges := o.Edges()
		var cursor atomic.Int64
		for w := 0; w < t; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				t0 := time.Now()
				var ws workerScratch
				for {
					lo := cursor.Add(edgeChunk) - edgeChunk
					if lo >= int64(len(edges)) {
						break
					}
					hi := lo + edgeChunk
					if hi > int64(len(edges)) {
						hi = int64(len(edges))
					}
					var unit int64
					for _, e := range edges[lo:hi] {
						processEdge(e[0], e[1], &ws, &unit)
					}
					st.WorkPerWorker[id] += unit
					bumpMax(unit)
				}
				st.BusyPerWorker[id] = time.Since(t0)
			}(w)
		}
	}
	wg.Wait()
	st.MaxUnitWork = maxUnit.Load()
	for _, w := range st.WorkPerWorker {
		st.TotalWork += w
	}
	return maps, st
}
