package server

// Shorthands for the suites: the registry's write and query surface is
// ApplyEdgesStamped and TopKQ; these spell the common argument shapes.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ego"
	"repro/internal/graph"
)

func (r *Registry) applyEdges(name string, edges [][2]int32, insert bool) (UpdateResult, error) {
	return r.applyEdgesAck(name, edges, insert, AckDurable)
}

func (r *Registry) applyEdgesAck(name string, edges [][2]int32, insert bool, ack string) (UpdateResult, error) {
	return r.ApplyEdgesStamped(name, edges, nil, insert, ack)
}

func (r *Registry) topK(name string, k int, algo string) (TopKResult, error) {
	return r.TopKQ(name, TopKQuery{K: k, Algo: algo})
}

// exactKs are the k every exact read is held at: small ones, one past a
// typical lazy k of old, and half and all of the n vertices.
func exactKs(n int32) []int { return []int{1, 4, 10, 50, int(n) / 2, int(n)} }

// assertServesExact holds graph name's exact reads to the kernel on want:
// the scores, auto, opt and base top-k at every exactKs k against
// ego.TopKExact, and every vertex read against ego.ComputeAll — ids and
// score bits alike (assertTopKEqual compares encodings, which keep every
// bit of a finite float). In ModeLazy that covers the seeded search over
// stale bounds and the vertex read that recomputes a stale vertex.
func assertServesExact(t *testing.T, reg *Registry, name string, want graph.View) {
	t.Helper()
	for _, k := range exactKs(want.NumVertices()) {
		exact := ego.TopKExact(want, k)
		for _, algo := range []string{AlgoScores, AlgoAuto, AlgoOpt, AlgoBase} {
			res, err := reg.topK(name, k, algo)
			if err != nil {
				t.Fatalf("TopK(%s, k=%d): %v", algo, k, err)
			}
			assertTopKEqual(t, fmt.Sprintf("k=%d algo=%s", k, algo), res.Results, exact)
		}
	}
	scores := ego.ComputeAll(want)
	for v := int32(0); v < want.NumVertices(); v++ {
		vr, err := reg.EgoBetweenness(name, v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(vr.CB) != math.Float64bits(scores[v]) {
			t.Fatalf("vertex %d serves cb %v, recompute %v", v, vr.CB, scores[v])
		}
	}
}
