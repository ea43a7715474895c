package main

import (
	"fmt"
	"math/rand"
	"time"

	egobw "repro"
	"repro/internal/approx"
	"repro/internal/dynamic"
	"repro/internal/ego"
	"repro/internal/graph"
)

// libState is what one cold library set-up leaves behind: the frozen
// graph the searches run on, and both maintainers, each with the model that
// tracks its drifting edge set (they receive different numbers of updates).
type libState struct {
	g    *graph.Graph
	m    *dynamic.Maintainer
	mdl  *model
	lt   *dynamic.LazyTopK
	lmdl *model

	scratch *ego.Scratch // for the traced rounds' kernel spans

	buildLocal, buildLazy time.Duration
}

// libSetup is the library's cold set-up: graph.FromEdges, NewMaintainer,
// NewLazyTopK on the generated edge list.
func libSetup(n int32, edges []edge) (*libState, time.Duration, error) {
	t0 := time.Now()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, 0, fmt.Errorf("lib set-up: %w", err)
	}
	t1 := time.Now()
	m := egobw.NewMaintainer(g)
	t2 := time.Now()
	lt := egobw.NewLazyTopK(g, lazyK)
	t3 := time.Now()
	st := &libState{g: g, m: m, mdl: newModel(g), lt: lt, lmdl: newModel(g), scratch: ego.NewScratch(n),
		buildLocal: t2.Sub(t1), buildLazy: t3.Sub(t2)}
	return st, t3.Sub(t0), nil
}

// approxOpts are the approx tier's defaults, pinned to one worker: the
// lib stage is one caller.
var approxOpts = approx.Options{Eps: approx.DefaultEps, Conf: approx.DefaultConf, Workers: 1}

// libSamples is everything the lib stage timed.
type libSamples struct {
	rounds int
	ops    int

	exactMS, approxMS, allMS []float64 // one per round
	localInsUS, localDelUS   []float64 // one per edge
	lazyInsUS, lazyDelUS     []float64 // one per edge
	lazyResultsUS            []float64 // one per Results() call
	lazyEdgeUS               []float64 // one per round: (2*lazyUpdates updates + 2 Results()) per update
}

func (s *libSamples) localUS() []float64 {
	return append(append([]float64(nil), s.localInsUS...), s.localDelUS...)
}

// round runs one library round on st: exact top-100, all-vertices scores,
// approx top-100, libUpdates inserts then as many deletes on the Maintainer,
// lazyUpdates of each on the LazyTopK with Results() after each half. Every answer
// is checked inside the round, outside the timers. With a tracer each call
// is a span and the exact search gets its irreducible-kernel child.
func (s *libSamples) round(st *libState, rng *rand.Rand, tr *tracer, c *checker) {
	s.rounds++
	op := tr.newOp()

	var top []ego.Result
	sid, d := tr.do("ego.search", "lib.topk_exact", op, 0, func() { top, _ = egobw.TopK(st.g, lazyK) })
	s.exactMS = append(s.exactMS, ms(d))
	if tr != nil {
		tr.do("ego.kernel", "lib.topk_exact", op, sid, func() { kernelOver(st.g, top, st.scratch) })
	}

	var all []float64
	_, d = tr.do("ego.compute_all", "lib.compute_all", tr.newOp(), 0, func() { all = egobw.ComputeAll(st.g) })
	s.allMS = append(s.allMS, ms(d))

	var apx []ego.Result
	_, d = tr.do("approx.topk", "lib.topk_approx", tr.newOp(), 0, func() { apx, _ = approx.TopK(st.g, lazyK, approxOpts) })
	s.approxMS = append(s.approxMS, ms(d))
	s.ops += 3

	t := truthOf(st.g, all)
	t.checkTopK(c, "lib exact top-100", top, lazyK)
	t.checkApprox(c, "lib approx top-100", apx, min(lazyK, len(all)), approxOpts.Eps, approxOpts.Conf)

	ins := st.mdl.insertBatch(rng, libUpdates, 0)
	del := st.mdl.deleteLiveBatch(rng, libUpdates)
	s.ops += 2*libUpdates + 2*lazyUpdates + 2

	uop := tr.newOp()
	for _, e := range ins {
		var err error
		_, d = tr.do("dynamic.local.insert", "lib.update_local", uop, 0, func() { err = st.m.InsertEdge(e[0], e[1]) })
		c.expect(err == nil, "Maintainer insert %v: %v", e, err)
		s.localInsUS = append(s.localInsUS, us(d))
	}
	for _, e := range del {
		var err error
		_, d = tr.do("dynamic.local.delete", "lib.update_local", uop, 0, func() { err = st.m.DeleteEdge(e[0], e[1]) })
		c.expect(err == nil, "Maintainer delete %v: %v", e, err)
		s.localDelUS = append(s.localDelUS, us(d))
	}

	// The lazy cost of an edge is taken per round, not per half: insert
	// halves and delete halves leave different amounts of stale work to
	// Results(), and a median over both kinds would straddle two modes.
	lop := tr.newOp()
	var sum time.Duration
	half := func(batch []edge, name string, apply func(u, v int32) error, into *[]float64) {
		for _, e := range batch {
			var err error
			_, d := tr.do(name, "lib.update_lazy", lop, 0, func() { err = apply(e[0], e[1]) })
			c.expect(err == nil, "LazyTopK %s %v: %v", name, e, err)
			*into = append(*into, us(d))
			sum += d
		}
		_, d := tr.do("dynamic.lazy.results", "lib.update_lazy", lop, 0, func() { st.lt.Results() })
		s.lazyResultsUS = append(s.lazyResultsUS, us(d))
		sum += d
	}
	half(st.lmdl.insertBatch(rng, lazyUpdates, 0), "dynamic.lazy.insert", st.lt.InsertEdge, &s.lazyInsUS)
	half(st.lmdl.deleteLiveBatch(rng, lazyUpdates), "dynamic.lazy.delete", st.lt.DeleteEdge, &s.lazyDelUS)
	s.lazyEdgeUS = append(s.lazyEdgeUS, us(sum)/(2*lazyUpdates))
}

// kernelOver recomputes exactly the returned vertices with one reused
// Scratch: the work no search strategy can avoid.
func kernelOver(g graph.View, res []ego.Result, s *ego.Scratch) {
	for _, r := range res {
		ego.EgoBetweenness(g, r.V, s)
	}
}
