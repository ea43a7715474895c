package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/approx"
	"repro/internal/dynamic"
	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/store"
)

// Layer replay. The program is not instrumented, so a layer's cost inside
// a request cannot be read off one execution. Instead every scripted op is
// executed top-down on three twin states that receive identical writes:
//
//	A  server.Server: the op through Handler().ServeHTTP   → span server.http
//	B  server.Registry: the same op as a direct call       → span server.registry
//	C  the harness's shadow (Maintainer + overlay chain
//	   + Store): the work B delegates, call by call        → spans ego.*, approx.*,
//	                                                          store.*, dynamic.*, graph.*
//
// Each span's parent is the span one level up, so a layer's self time is
// its duration minus its children's (selfTimes): http minus registry is
// decode/route/encode, registry minus the shadow calls is cache, queue
// hand-off and score publication. It runs single-threaded in this process.
type twins struct {
	a    http.Handler
	aReg *server.Registry
	b    *server.Registry

	m       *dynamic.Maintainer // shadow C
	view    graph.View
	st      *store.Store // nil on in-memory twins
	scratch *ego.Scratch
	workers int

	compactions int64 // B's counters at the last look
	checkpoints int64
	class       string // "write.durable" or "write.memory"
	dirB        string
}

var quiet = server.WithLogger(func(string, ...any) {})

// newTwins builds the three states on g. dir is "" for in-memory twins;
// otherwise A, B and the shadow store each get a directory below it.
func newTwins(g *graph.Graph, dir string) (*twins, error) {
	t := &twins{scratch: ego.NewScratch(g.NumVertices()), class: "write.memory"}
	var optsA, optsB []server.RegistryOption
	if dir != "" {
		t.class = "write.durable"
		t.dirB = filepath.Join(dir, "b")
		optsA = append(optsA, server.WithDataDir(filepath.Join(dir, "a")))
		optsB = append(optsB, server.WithDataDir(t.dirB))
		st, err := store.Create(filepath.Join(dir, "c"), g, store.SnapshotMeta{})
		if err != nil {
			return nil, err
		}
		t.st = st
	}
	srv := server.New(quiet, server.WithRegistryOptions(optsA...))
	t.a, t.aReg = srv.Handler(), srv.Registry()
	t.b = server.NewRegistry(optsB...)
	for _, r := range []*server.Registry{t.aReg, t.b} {
		info, err := r.Add(graphName, g, server.ModeLocal, 0)
		if err != nil {
			t.close()
			return nil, err
		}
		t.workers = info.BuildWorkers
	}
	t.m = dynamic.NewMaintainer(g)
	t.view = g
	return t, nil
}

func (t *twins) close() {
	t.aReg.Close()
	t.b.Close()
	if t.st != nil {
		t.st.Close()
	}
}

// read replays one scripted GET down the twins and reports whether every
// twin answered.
func (t *twins) read(tr *tracer, op readOp, c *checker) {
	id := tr.newOp()
	class := "read." + readClassNames[op.class]
	req := httptest.NewRequest("GET", gpath(op.path), nil)
	rec := httptest.NewRecorder()
	hid, _ := tr.do("server.http", class, id, 0, func() { t.a.ServeHTTP(rec, req) })
	c.expect(rec.Code == http.StatusOK, "replay %s: handler status %d", op.path, rec.Code)

	if op.class == classVertex {
		var err error
		tr.do("server.registry", class, id, hid, func() { _, err = t.b.EgoBetweenness(graphName, op.v) })
		c.expect(err == nil, "replay %s: registry: %v", op.path, err)
		return
	}
	var res server.TopKResult
	var err error
	rid, _ := tr.do("server.registry", class, id, hid, func() {
		res, err = t.b.TopKQ(graphName, server.TopKQuery{K: op.k, Algo: op.algo})
	})
	if !c.expect(err == nil, "replay %s: registry: %v", op.path, err) {
		return
	}
	if res.Cached {
		tr.setClass(id, class+".hit")
		return
	}
	tr.setClass(id, class+".miss")
	class += ".miss"
	var shadow []ego.Result
	switch res.Algo {
	case server.AlgoScores:
		all := t.m.All()
		tr.do("ego.topk_of", class, id, rid, func() {
			shadow = ego.TopKOf(int32(len(all)), func(v int32) float64 { return all[v] }, op.k)
		})
	case server.AlgoOpt:
		sid, _ := tr.do("ego.search", class, id, rid, func() { shadow, _ = ego.OptBSearch(t.view, op.k, defaultTheta) })
		tr.do("ego.kernel", class, id, sid, func() { kernelOver(t.view, shadow, t.scratch) })
	case server.AlgoApprox:
		tr.do("approx.topk", class, id, rid, func() {
			shadow, _ = approx.TopK(t.view, op.k, approx.Options{Workers: t.workers})
		})
	}
	c.expect(sameResults(shadow, res.Results), "replay %s: registry and shadow disagree", op.path)
}

// sameResults compares two answers computed by the same algorithm on
// equal graphs, score by score. Ids are left to the final oracle: the
// registry's scores come from the parallel engine and the shadow's from the
// sequential one, so vertices tied up to rounding may swap places.
func sameResults(a, b []ego.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeScore(a[i].CB, b[i].CB) {
			return false
		}
	}
	return true
}

// write replays one edge batch down the twins.
func (t *twins) write(tr *tracer, b writeBatchOp, c *checker) {
	id := tr.newOp()
	method := "POST"
	if !b.insert {
		method = "DELETE"
	}
	req := httptest.NewRequest(method, gpath("/edges?ack=durable"), bytes.NewReader(encodeBatch(b)))
	rec := httptest.NewRecorder()
	hid, _ := tr.do("server.http", t.class, id, 0, func() { t.a.ServeHTTP(rec, req) })
	c.expect(rec.Code == http.StatusOK, "replay %s edges: handler status %d", method, rec.Code)
	t.settle(t.aReg)

	var res server.UpdateResult
	var err error
	rid, _ := tr.do("server.registry", t.class, id, hid, func() {
		res, err = t.b.ApplyEdgesStamped(graphName, b.edges, nil, b.insert, server.AckDurable)
	})
	c.expect(err == nil && res.Applied == len(b.edges), "replay %s edges: registry applied %d of %d, %v", method, res.Applied, len(b.edges), err)
	info := t.settle(t.b)

	if t.st != nil {
		tr.do("store.wal_append", t.class, id, rid, func() {
			_, err = t.st.AppendBatches([]store.BatchSpec{{Insert: b.insert, Edges: b.edges}})
		})
		c.expect(err == nil, "replay: shadow WAL append: %v", err)
	}
	tr.do("dynamic.apply", t.class, id, rid, func() {
		for _, e := range b.edges {
			if b.insert {
				err = t.m.InsertEdge(e[0], e[1])
			} else {
				err = t.m.DeleteEdge(e[0], e[1])
			}
			if err != nil {
				return
			}
		}
	})
	c.expect(err == nil, "replay: shadow apply: %v", err)
	tr.do("graph.publish", t.class, id, rid, func() {
		t.view = t.m.Graph().FreezeOverlay(t.view)
		t.m.TakeDirtyScores()
	})

	// Mirror what B's policies did on this batch. A checkpoint runs inside
	// the ack (forced flatten, then the state-carrying snapshot write), so
	// its shadow spans are children of the registry span. A background
	// compaction runs after the ack; it is replayed as an op of its own.
	switch {
	case info.Checkpoints > t.checkpoints:
		var flat *graph.Graph
		if ov, ok := t.view.(*graph.Overlay); ok {
			tr.do("graph.compact", t.class, id, rid, func() { flat = ov.Materialize(t.workers) })
			t.view = flat
		} else {
			flat = t.view.(*graph.Graph)
		}
		tr.do("store.checkpoint", t.class, id, rid, func() {
			err = t.st.CheckpointFull(flat, store.SnapshotMeta{Seq: t.st.Seq()},
				&store.MaintainerState{Local: t.m.ExportState()}, nil, nil)
		})
		c.expect(err == nil, "replay: shadow checkpoint: %v", err)
	case info.Compactions > t.compactions:
		if ov, ok := t.view.(*graph.Overlay); ok {
			tr.do("graph.compact", "compact.background", tr.newOp(), 0, func() { t.view = ov.Materialize(t.workers) })
		}
	}
	t.compactions, t.checkpoints = info.Compactions, info.Checkpoints
}

// settle waits for r's background compactor to finish the flatten the
// last publish may have triggered, so the next twin's span does not share
// its CPU and both registries present the same view to the next op.
func (t *twins) settle(r *server.Registry) server.GraphInfo {
	for {
		info, err := r.Info(graphName)
		if err != nil || info.OverlayDepth < compactDepth {
			return info
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// compactDepth is the daemon's default compaction depth; the dirty-ratio
// trigger (25 % of n) is out of reach of the scripts' batch sizes.
const compactDepth = 8

// replayReads is the read stage's script on in-memory twins: blocks of the
// churn mix with one readWriteBatch-edge write per readsPerWrite reads,
// about the ratio the live stage sees.
func replayReads(tr *tracer, g *graph.Graph, rng *rand.Rand, blocks int, c *checker) (ops int, err error) {
	const readsPerWrite = 25
	t, err := newTwins(g, "")
	if err != nil {
		return 0, err
	}
	defer t.close()
	mdl := newModel(g)
	for b := 0; b < blocks; b++ {
		for i, op := range churnBlock(rng, mdl.n) {
			if i%readsPerWrite == readsPerWrite-1 {
				t.write(tr, mdl.nextWriteBatch(rng, readWriteBatch, 0), c)
				ops++
			}
			t.read(tr, op, c)
			ops++
		}
	}
	t.verify(mdl, c)
	return ops, nil
}

// replayWrites is the write stage's script on durable twins below dir,
// followed by a timed Registry.Recover of twin B's directory.
func replayWrites(tr *tracer, g *graph.Graph, rng *rand.Rand, batches int, dir string, c *checker) (ops int, recoverMS float64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	t, err := newTwins(g, dir)
	if err != nil {
		return 0, 0, err
	}
	mdl := newModel(g)
	for i := 0; i < batches; i++ {
		t.write(tr, mdl.nextWriteBatch(rng, writeBatch, 0.5), c)
		ops++
		if i%2 == 1 {
			t.read(tr, pacedRead(rng, mdl.n), c)
			ops++
		}
	}
	truth := t.verify(mdl, c)
	t.close()

	nb := server.NewRegistry(server.WithDataDir(t.dirB))
	t0 := time.Now()
	_, rerr := nb.Recover()
	recoverMS = ms(time.Since(t0))
	if c.expect(rerr == nil, "replay: Registry.Recover: %v", rerr) {
		res, qerr := nb.TopKQ(graphName, server.TopKQuery{K: lazyK})
		if c.expect(qerr == nil, "replay: recovered topk: %v", qerr) {
			truth.checkTopK(c, "recovered registry top-100", res.Results, lazyK)
		}
	}
	nb.Close()
	return ops, recoverMS, nil
}

// verify holds all three twins against a recompute on the model's edges.
func (t *twins) verify(mdl *model, c *checker) *truth {
	tr := newTruth(mdl.graph())
	tr.checkScores(c, "replay shadow Maintainer", t.m.All())
	res, err := t.b.TopKQ(graphName, server.TopKQuery{K: lazyK})
	if c.expect(err == nil, "replay: registry topk: %v", err) {
		tr.checkTopK(c, "replay registry top-100", res.Results, lazyK)
	}
	resA, err := t.aReg.TopKQ(graphName, server.TopKQuery{K: lazyK})
	if c.expect(err == nil, "replay: handler registry topk: %v", err) {
		tr.checkTopK(c, "replay handler top-100", resA.Results, lazyK)
	}
	return tr
}

func sumDurNs(spans []span, name, class string) (total int64) {
	for _, s := range spans {
		if s.Name == name && s.Class == class {
			total += s.dur()
		}
	}
	return total
}
