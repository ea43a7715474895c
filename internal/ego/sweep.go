package ego

import (
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Sweep is the one parallel all-vertices loop over the per-ego kernel:
// up to `workers` workers (at least one) claim units through par.For, each
// over its own Scratch. A whole-ego unit calls each(v, s), which must run the
// kernel on v over s and keeps what it needs; nothing is locked.
//
// With split non-nil an ego costing more than total/(4·workers) kernel steps
// (its Price, read off every CSR by a first sweep) is cut into chunks of
// its rows — its edges (p, x) — that add their integer histograms into one;
// the last chunk folds it and hands the score to split(v, cb), so scores
// are the same bits at any worker count. Split egos emit no evidence map.
// Sweep returns the kernel steps each worker ran and the heaviest unit's;
// they sum to Σ_p Price however egos are cut.
func Sweep(g graph.View, workers int, each func(v int32, s *Scratch), split func(v int32, cb float64)) (work []int64, maxUnit int64) {
	workers = max(workers, 1)
	var plan []chunk // nil: unit i is the whole ego of vertex i
	if split != nil {
		plan = splitPlan(g, workers)
	}
	units := max(len(plan), int(g.NumVertices()))
	work, maxW := make([]int64, workers), make([]int64, workers)
	scratch := make([]*Scratch, workers)
	par.For(workers, units, func(w, i int) {
		s := scratch[w]
		if s == nil {
			s = NewScratch(g.NumVertices())
			scratch[w] = s
		}
		u := chunk{v: int32(i)}
		if plan != nil {
			u = plan[i]
		}
		var steps int64
		if u.e == nil {
			each(u.v, s)
			steps = s.steps // each scored v over s
		} else {
			steps = u.run(g, s, split)
		}
		work[w] += steps
		maxW[w] = max(maxW[w], steps)
	})
	return work, slices.Max(maxW)
}

// A chunk is a unit: the whole ego of v (e nil), or the i-th of e.k chunks.
type chunk struct {
	v int32
	i int
	e *splitEgo
}

// splitEgo is what one ego's chunks share: chunk i counts the rows
// [cuts[i], cuts[i+1]) of the ego CSR, which run steps[i] kernel steps, and
// adds its histogram into hist.
type splitEgo struct {
	cuts  []int
	steps []int64
	hist  []int64
	left  atomic.Int32
}

// splitPlan lists the units of a split sweep: each ego whole, unless it
// costs more than the share total/(4·workers), then ⌈cost/share⌉ chunks,
// whose rows are cut once here from the ego's row prices.
func splitPlan(g graph.View, workers int) []chunk {
	cost := make([]int64, g.NumVertices())
	var total atomic.Int64
	Sweep(g, workers, func(v int32, s *Scratch) {
		_, off, adj := s.EgoCSR(g, v)
		cost[v] = s.Price(off, adj)
		total.Add(cost[v])
	}, nil)
	share := max(total.Load()/int64(4*workers), 1)
	plan := make([]chunk, 0, len(cost))
	var s *Scratch
	for v, c := range cost {
		k := int((c + share - 1) / share)
		if k <= 1 {
			plan = append(plan, chunk{v: int32(v)})
			continue
		}
		if s == nil {
			s = NewScratch(g.NumVertices())
		}
		_, off, adj := s.EgoCSR(g, int32(v))
		e := &splitEgo{hist: make([]int64, len(off)-1)}
		e.cuts, e.steps = rowCuts(s.rowPrices(off, adj), k)
		e.left.Store(int32(k))
		for i := range k {
			plan = append(plan, chunk{v: int32(v), i: i, e: e})
		}
	}
	return plan
}

// run counts the chunk's rows of its ego over s, adds the histogram into
// the ego's shared one and, as the ego's last chunk, folds it. It returns
// the kernel steps the rows ran.
func (u chunk) run(g graph.View, s *Scratch, split func(v int32, cb float64)) int64 {
	nu, off, adj := s.EgoCSR(g, u.v)
	d := len(nu)
	s.count(nu, off, adj, u.e.cuts[u.i], u.e.cuts[u.i+1], nil)
	for c, x := range s.hist[:d] {
		if x != 0 {
			atomic.AddInt64(&u.e.hist[c], x)
		}
	}
	clear(s.hist[:d])
	if u.e.left.Add(-1) == 0 {
		u.e.hist[0] = int64(len(adj) / 2)
		split(u.v, FoldScore(int32(d), u.e.hist))
	}
	return u.e.steps[u.i]
}

// rowCuts cuts the rows of an ego CSR, priced w, into k chunks that each run
// about 1/k of its Price: row x falls in chunk min(acc·k/total, k−1), acc
// the prices of the rows before it. Chunk i holds the rows [cuts[i],
// cuts[i+1]), empty when no row falls in it, and runs steps[i].
func rowCuts(w []int, k int) (cuts []int, steps []int64) {
	total := 0
	for _, wx := range w { // the rows' prices sum to the ego's Price
		total += wx
	}
	total = max(total, 1)
	cuts, steps = make([]int, k+1), make([]int64, k)
	next, acc := 1, 0 // cuts[0] = 0
	for x, wx := range w {
		c := min(acc*k/total, k-1) // nondecreasing in x
		for ; next <= c; next++ {
			cuts[next] = x
		}
		steps[c] += int64(wx)
		acc += wx
	}
	for ; next <= k; next++ {
		cuts[next] = len(w)
	}
	return cuts, steps
}
