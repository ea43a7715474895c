package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"

	"repro/internal/approx"
	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/server"
)

// Oracles. Every run checks the answers it timed; a mismatch counts as a
// failed op and makes the run exit non-zero. The reference is always a
// from-scratch ego.ComputeAll on a graph the harness built itself — from
// the generated edges or from the model's live edges — never a value the
// program under test handed back.

// scoreTol is the relative tolerance on scores: the engines sum the same
// terms in different orders.
const scoreTol = 1e-9

func closeScore(a, b float64) bool {
	return math.Abs(a-b) <= scoreTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checker collects oracle outcomes for one run.
type checker struct {
	checks   int
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// expect records one check and reports whether it held.
func (c *checker) expect(ok bool, format string, args ...any) bool {
	c.checks++
	if !ok {
		c.failf(format, args...)
	}
	return ok
}

func (c *checker) failed() int { return len(c.failures) }

// truth is a from-scratch score vector plus its descending sort, the
// reference every top-k answer is held against.
type truth struct {
	g      graph.View
	all    []float64
	sorted []float64
}

func newTruth(g graph.View) *truth {
	all := ego.ComputeAll(g)
	return truthOf(g, all)
}

func truthOf(g graph.View, all []float64) *truth {
	s := append([]float64(nil), all...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return &truth{g: g, all: all, sorted: s}
}

// checkTopK holds res against the reference as an exact top-k: right
// length, distinct vertices, every reported score equal to that vertex's
// true score and to the i-th largest true score. Ids are therefore pinned
// wherever scores are distinct; inside a tie either vertex is a valid
// answer (the algorithms may break ties at the k-th place differently).
func (t *truth) checkTopK(c *checker, what string, res []ego.Result, k int) bool {
	want := k
	if n := len(t.all); want > n {
		want = n
	}
	if !c.expect(len(res) == want, "%s: %d results, want %d", what, len(res), want) {
		return false
	}
	seen := make(map[int32]bool, len(res))
	for i, r := range res {
		if r.V < 0 || int(r.V) >= len(t.all) || seen[r.V] {
			return c.expect(false, "%s: result %d names vertex %d (out of range or repeated)", what, i, r.V)
		}
		seen[r.V] = true
		if !closeScore(r.CB, t.all[r.V]) {
			return c.expect(false, "%s: vertex %d reported %.12g, true score %.12g", what, r.V, r.CB, t.all[r.V])
		}
		if !closeScore(r.CB, t.sorted[i]) {
			return c.expect(false, "%s: rank %d has score %.12g, the %d-th largest true score is %.12g", what, i, r.CB, i+1, t.sorted[i])
		}
	}
	return c.expect(true, "")
}

// checkScores holds a full score vector against the reference.
func (t *truth) checkScores(c *checker, what string, got []float64) bool {
	if !c.expect(len(got) == len(t.all), "%s: %d scores, want %d", what, len(got), len(t.all)) {
		return false
	}
	for v := range got {
		if !closeScore(got[v], t.all[v]) {
			return c.expect(false, "%s: vertex %d has %.12g, recompute gives %.12g", what, v, got[v], t.all[v])
		}
	}
	return c.expect(true, "")
}

// approxQuality is how an approx answer compares with the reference.
type approxQuality struct {
	recall float64 // share of returned vertices whose true score reaches the k-th largest
	within float64 // share of estimates within eps·StaticUB(degree) of the truth
}

func (t *truth) approxQuality(res []ego.Result, k int, eps float64) approxQuality {
	if len(res) == 0 || k > len(t.sorted) {
		return approxQuality{}
	}
	kth := t.sorted[k-1]
	var hit, in int
	for _, r := range res {
		tv := t.all[r.V]
		if tv >= kth || closeScore(tv, kth) {
			hit++
		}
		if math.Abs(r.CB-tv) <= eps*ego.StaticUB(t.g.Degree(r.V))+scoreTol {
			in++
		}
	}
	return approxQuality{recall: float64(hit) / float64(k), within: float64(in) / float64(len(res))}
}

// Accuracy floors of the approx oracle: recall@k, and the share of
// estimates inside their stated half-width, which must reach the
// confidence the query ran at.
const approxRecallFloor = 0.9

func (t *truth) checkApprox(c *checker, what string, res []ego.Result, k int, eps, conf float64) approxQuality {
	q := t.approxQuality(res, k, eps)
	c.expect(len(res) == k, "%s: %d results, want %d", what, len(res), k)
	c.expect(q.recall >= approxRecallFloor, "%s: recall@%d %.3f below %.2f", what, k, q.recall, approxRecallFloor)
	c.expect(q.within >= conf, "%s: only %.3f of estimates within eps*StaticUB, confidence is %.2f", what, q.within, conf)
	return q
}

// verifyLibrary runs the cross-algorithm oracle on g: OptBSearch for every
// k in ks, BaseBSearch for every k in baseKs, and both parallel engines,
// all against the sequential ComputeAll.
func verifyLibrary(c *checker, g *graph.Graph, t *truth, ks, baseKs []int) {
	for _, k := range ks {
		opt, _ := ego.OptBSearch(g, k, defaultTheta)
		t.checkTopK(c, fmt.Sprintf("OptBSearch k=%d", k), opt, k)
	}
	for _, k := range baseKs {
		base, _ := ego.BaseBSearch(g, k)
		t.checkTopK(c, fmt.Sprintf("BaseBSearch k=%d", k), base, k)
	}
	for _, s := range []parallel.Strategy{parallel.EdgePEBW, parallel.VertexPEBW} {
		got, _ := parallel.ComputeAll(g, 2, s)
		t.checkScores(c, s.String()+" 2 workers", got)
	}
}

const defaultTheta = 1.05

// verifyMaintainers holds both maintainers, after their whole update
// streams, against a recompute on their models' final graphs.
func verifyMaintainers(c *checker, st *libState) {
	c.expect(st.m.Graph().NumEdges() == int64(len(st.mdl.live)), "Maintainer has %d edges, the model %d", st.m.Graph().NumEdges(), len(st.mdl.live))
	newTruth(st.mdl.graph()).checkScores(c, "Maintainer.All after updates", st.m.All())
	newTruth(st.lmdl.graph()).checkTopK(c, "LazyTopK.Results after updates", st.lt.Results(), st.lt.K())
}

// verifyServed holds a quiescent daemon against a recompute on the
// model's live edges: topk?k=100 under each of algos ("" is the server's
// default) and a seeded sample of vertex lookups.
func verifyServed(c *checker, cl *client, mdl *model, rng *rand.Rand, vertices int, algos []string) {
	t := newTruth(mdl.graph())
	const k = 100
	for _, algo := range algos {
		op := topkOp(classHot, k, algo)
		var res server.TopKResult
		code, err := cl.get(gpath(op.path), &res)
		if !c.expect(err == nil && code == http.StatusOK, "GET %s: status %d, %v", op.path, code, err) {
			continue
		}
		if algo == server.AlgoApprox {
			t.checkApprox(c, "served algo=approx k=100", res.Results, min(k, len(t.all)), approx.DefaultEps, approx.DefaultConf)
			continue
		}
		t.checkTopK(c, "served topk "+op.path, res.Results, k)
	}
	for i := 0; i < vertices; i++ {
		v := rng.Int31n(mdl.n)
		var vr server.VertexResult
		code, err := cl.get(gpath(vertexOp(v).path), &vr)
		if !c.expect(err == nil && code == http.StatusOK, "GET vertex %d: status %d, %v", v, code, err) {
			continue
		}
		c.expect(closeScore(vr.CB, t.all[v]) && vr.Degree == t.g.Degree(v),
			"served vertex %d: cb %.12g degree %d, recompute gives %.12g degree %d", v, vr.CB, vr.Degree, t.all[v], t.g.Degree(v))
	}
	st, err := cl.stats()
	if c.expect(err == nil, "GET stats: %v", err) {
		c.expect(st.M == int64(len(mdl.live)), "served graph has %d edges, the model %d", st.M, len(mdl.live))
	}
}
