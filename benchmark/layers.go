package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/approx"
	"repro/internal/dynamic"
	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/nbr"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Layer probes: each package's public functions timed from outside on the
// workload's graph. They feed the per-layer metrics that no replay span
// covers. Timings are medians of a few repetitions; counts come from the
// Stats the packages already return and are deterministic for a seed.

type metrics map[string]float64

const probeReps = 3

func probeGraph(m metrics, g *graph.Graph, rng *rand.Rand) error {
	edges := g.Edges()
	var buildErr error
	m["graph.build_ms"] = ms(timeIt(probeReps, func() { _, buildErr = graph.FromEdges(g.NumVertices(), edges) }))
	if buildErr != nil {
		return buildErr
	}
	m["graph.relabel_ms"] = ms(timeIt(probeReps, func() { graph.DegreeRelabel(g) }))

	// A depth-8 overlay as the default compaction policy lets one grow:
	// eight published batches of writeBatch edges each.
	mdl := newModel(g)
	dyn := graph.DynFromGraph(g)
	var view graph.View = g
	for i := 0; i < 8; i++ {
		for _, e := range mdl.insertBatch(rng, writeBatch, 0.5) {
			if err := dyn.InsertEdge(e[0], e[1]); err != nil {
				return fmt.Errorf("overlay probe: %w", err)
			}
		}
		view = dyn.FreezeOverlay(view)
	}
	ov := view.(*graph.Overlay)
	var flat *graph.Graph
	m["graph.compact_ms"] = ms(timeIt(probeReps, func() { flat = ov.Materialize(2) }))
	onOverlay := timeIt(probeReps, func() { ego.OptBSearch(ov, lazyK, defaultTheta) })
	onFlat := timeIt(probeReps, func() { ego.OptBSearch(flat, lazyK, defaultTheta) })
	m["graph.overlay_read_tax_x"] = ratio(float64(onOverlay), float64(onFlat))
	return nil
}

func probeEgo(m metrics, g *graph.Graph, t *truth, rng *rand.Rand, baseKs []int, c *checker) {
	var st ego.SearchStats
	var top []ego.Result
	for _, k := range []int{10, 100, 1000} {
		var res []ego.Result
		d := timeIt(probeReps, func() { res, st = ego.OptBSearch(g, k, defaultTheta) })
		m[fmt.Sprintf("ego.opt.k%d_ms", k)] = ms(d)
		t.checkTopK(c, fmt.Sprintf("OptBSearch k=%d", k), res, k)
		if k == lazyK {
			top = res
			m["ego.opt.computed"] = float64(st.Computed)
			m["ego.opt.pruned"] = float64(st.Pruned)
			m["ego.opt.reinserted"] = float64(st.Reinserted)
			m["ego.opt.bound_refreshes"] = float64(st.BoundRefreshes)
			m["ego.opt.edges_processed"] = float64(st.EdgesProcessed)
			m["ego.opt.credit_ops"] = float64(st.CreditOps)
			m["ego.opt.useful_ratio"] = ratio(float64(len(res)), float64(st.Computed))
		}
	}
	rl := graph.DegreeRelabel(g)
	var relab []ego.Result
	m["ego.opt.relabeled_k100_ms"] = ms(timeIt(probeReps, func() { relab, _ = ego.OptBSearchLabeled(rl.G, lazyK, defaultTheta, rl.Ext) }))
	t.checkTopK(c, "OptBSearchLabeled k=100", relab, lazyK)

	// BaseBSearch costs seconds on hub graphs, so it runs once per k: k=100
	// is timed, the scale's other ks only feed the oracle.
	for _, k := range append([]int{lazyK}, baseKs...) {
		if k == lazyK && m["ego.base.k100_ms"] != 0 {
			continue
		}
		t0 := time.Now()
		base, bst := ego.BaseBSearch(g, k)
		if k == lazyK {
			m["ego.base.k100_ms"] = ms(time.Since(t0))
			m["ego.base.computed"] = float64(bst.Computed)
		}
		t.checkTopK(c, fmt.Sprintf("BaseBSearch k=%d", k), base, k)
	}
	m["ego.compute_all_ms"] = ms(timeIt(probeReps, func() { ego.ComputeAll(g) }))

	scratch := ego.NewScratch(g.NumVertices())
	kernel := timeIt(5, func() { kernelOver(g, top, scratch) })
	m["ego.kernel.topk_ms"] = ms(kernel)
	m["ego.opt.overhead_x"] = ratio(m["ego.opt.k100_ms"], ms(kernel))

	per := make([]float64, 1024)
	for i := range per {
		v := rng.Int31n(g.NumVertices())
		t0 := time.Now()
		ego.EgoBetweenness(g, v, scratch)
		per[i] = us(time.Since(t0))
	}
	m["ego.kernel.sample_us"] = median(per)

	at := func(v int32) float64 { return t.all[v] }
	m["ego.topk_of_us"] = us(timeIt(21, func() { ego.TopKOf(g.NumVertices(), at, lazyK) }))
}

func probeNbr(m metrics, g *graph.Graph, hubs int, c *checker) {
	var common int
	pass := timeIt(probeReps, func() {
		common = 0
		g.EachEdge(func(u, v int32) bool {
			common += nbr.CommonCount(g, u, v)
			return true
		})
	})
	m["nbr.edge_pass_ns"] = ratio(float64(pass.Nanoseconds()), float64(g.NumEdges()))
	m["nbr.edge_pass_common"] = float64(common)

	order := graph.OrderOf(g)
	if hubs > len(order) {
		hubs = len(order)
	}
	top := order[:hubs]
	pairs := float64(hubs * (hubs - 1) / 2)
	var byList, byWord int
	listPass := timeIt(5, func() {
		byList = 0
		for i, a := range top {
			for _, b := range top[i+1:] {
				byList += nbr.CommonCount(g, a, b)
			}
		}
	})
	m["nbr.hub_pair_ns"] = ratio(float64(listPass.Nanoseconds()), pairs)
	ra, rb := nbr.NewRegister(g.NumVertices()), nbr.NewRegister(g.NumVertices())
	wordPass := timeIt(5, func() {
		byWord = 0
		for i, a := range top {
			ra.Mark(g.Neighbors(a))
			for _, b := range top[i+1:] {
				rb.Mark(g.Neighbors(b))
				byWord += ra.AndCount(rb)
				rb.Unmark()
			}
			ra.Unmark()
		}
	})
	m["nbr.hub_word_ns"] = ratio(float64(wordPass.Nanoseconds()), pairs)
	c.expect(byList == byWord, "hub pairs: list kernel counts %d common neighbours, word kernel %d", byList, byWord)
}

func probeParallel(m metrics, g *graph.Graph, t *truth, c *checker) {
	for _, p := range []struct {
		s    parallel.Strategy
		name string
	}{{parallel.EdgePEBW, "edge"}, {parallel.VertexPEBW, "vertex"}} {
		var got []float64
		var st parallel.Stats
		d := timeIt(probeReps, func() { got, st = parallel.ComputeAll(g, 2, p.s) })
		m["parallel."+p.name+"_2w_ms"] = ms(d)
		m["parallel."+p.name+"_bound_2w"] = st.SpeedupBound(2)
		t.checkScores(c, p.s.String()+" 2 workers", got)
	}
}

func probeApprox(m metrics, g *graph.Graph, t *truth, c *checker) {
	var res []ego.Result
	var st approx.Stats
	m["approx.k100_ms"] = ms(timeIt(5, func() { res, st = approx.TopK(g, lazyK, approxOpts) }))
	m["approx.samples"] = float64(st.Samples)
	m["approx.candidates"] = float64(st.Candidates)
	m["approx.exact"] = float64(st.Exact)
	m["approx.pruned"] = float64(st.Pruned)
	m["approx.eps_achieved"] = st.EpsAchieved
	m["approx.recall_at_100"] = t.checkApprox(c, "approx top-100", res, min(lazyK, len(t.all)), approxOpts.Eps, approxOpts.Conf).recall
}

// fsyncProbe is a host property, not the program's: 50 writes of 4 KiB,
// each followed by fsync, in the directory the durable daemon writes to.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	xs := make([]float64, 50)
	for i := range xs {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		xs[i] = us(time.Since(t0))
	}
	return median(xs), nil
}

func probeStore(m metrics, g *graph.Graph, dir string, rng *rand.Rand) error {
	mt := dynamic.NewMaintainer(g)
	state := &store.MaintainerState{Local: mt.ExportState()}
	var importErr error
	m["dynamic.import_state_ms"] = ms(timeIt(probeReps, func() {
		if _, err := dynamic.NewMaintainerFromState(g, mt.ExportState()); err != nil {
			importErr = err
		}
	}))
	if importErr != nil {
		return importErr
	}

	sdir := filepath.Join(dir, "probe-store")
	st, err := store.Create(sdir, g, store.SnapshotMeta{})
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	mdl := newModel(g)
	const appends = 32
	xs := make([]float64, appends)
	before := st.WALBytes()
	for i := range xs {
		spec := []store.BatchSpec{{Insert: true, Edges: mdl.insertBatch(rng, writeBatch, 0.5)}}
		t0 := time.Now()
		if _, err := st.AppendBatches(spec); err != nil {
			st.Close()
			return err
		}
		xs[i] = us(time.Since(t0))
	}
	m["store.wal_append_us"] = median(xs)
	m["store.wal_bytes_per_batch"] = float64(st.WALBytes()-before) / appends

	var ckErr error
	m["store.checkpoint_ms"] = ms(timeIt(probeReps, func() {
		if err := st.CheckpointFull(g, store.SnapshotMeta{Seq: st.Seq()}, state, nil, nil); err != nil {
			ckErr = err
		}
	}))
	if ckErr != nil {
		st.Close()
		return ckErr
	}
	if fi, err := os.Stat(store.SnapshotPath(sdir)); err == nil {
		m["store.snapshot_bytes"] = float64(fi.Size())
		m["store.state_bytes"] = float64(fi.Size()) - float64(len(store.EncodeSnapshot(g, store.SnapshotMeta{})))
	}
	if err := st.Close(); err != nil {
		return err
	}
	var openErr error
	m["store.recover_open_ms"] = ms(timeIt(probeReps, func() {
		s2, _, err := store.Open(sdir)
		if err != nil {
			openErr = err
			return
		}
		openErr = s2.Close()
	}))
	return openErr
}

// dirBytes sums the regular files below dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil // a file vanishing mid-walk (WAL reset) is not an error here
	})
	return total
}
