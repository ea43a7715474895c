package main

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

type edge = [2]int32

// model is the harness's own record of which edges are live. Scripts draw
// from it so every insert names a non-edge and every delete a live edge
// (the program must report applied == len(batch)), and the oracles
// recompute answers from it, never from anything the program returned.
type model struct {
	n    int32
	live []uint64         // canonical edge keys; order is part of the seeded script
	pos  map[uint64]int32 // key -> index in live
	own  []uint64         // edges the script inserted that are still live
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

func keyEdge(k uint64) edge { return edge{int32(k >> 32), int32(uint32(k))} }

func newModel(g *graph.Graph) *model {
	m := &model{n: g.NumVertices(), pos: make(map[uint64]int32, g.NumEdges())}
	g.EachEdge(func(u, v int32) bool {
		m.add(edgeKey(u, v))
		return true
	})
	return m
}

func (m *model) add(k uint64) {
	m.pos[k] = int32(len(m.live))
	m.live = append(m.live, k)
}

func (m *model) remove(k uint64) {
	i := m.pos[k]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.pos[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.pos, k)
}

func (m *model) has(u, v int32) bool {
	_, ok := m.pos[edgeKey(u, v)]
	return ok
}

// edges returns the live edge list; the oracle rebuilds the graph from it.
func (m *model) edges() []edge {
	out := make([]edge, len(m.live))
	for i, k := range m.live {
		out[i] = keyEdge(k)
	}
	return out
}

func (m *model) graph() *graph.Graph { return graph.MustFromEdges(m.n, m.edges()) }

// insertBatch draws size distinct non-edges, records them live and returns
// them. hubShare of them take one endpoint degree-proportionally (an
// endpoint of a uniformly drawn live edge); the rest are uniform pairs.
func (m *model) insertBatch(rng *rand.Rand, size int, hubShare float64) []edge {
	out := make([]edge, 0, size)
	for len(out) < size {
		u := rng.Int31n(m.n)
		if hubShare > 0 && rng.Float64() < hubShare {
			u = keyEdge(m.live[rng.Intn(len(m.live))])[rng.Intn(2)]
		}
		v := rng.Int31n(m.n)
		if u == v || m.has(u, v) {
			continue
		}
		k := edgeKey(u, v)
		m.add(k)
		m.own = append(m.own, k)
		out = append(out, edge{u, v})
	}
	return out
}

// deleteOwnBatch removes size of the script's own inserts.
func (m *model) deleteOwnBatch(rng *rand.Rand, size int) []edge {
	out := make([]edge, 0, size)
	for len(out) < size {
		i := rng.Intn(len(m.own))
		k := m.own[i]
		m.own[i] = m.own[len(m.own)-1]
		m.own = m.own[:len(m.own)-1]
		m.remove(k)
		out = append(out, keyEdge(k))
	}
	return out
}

// deleteLiveBatch removes size uniformly drawn live edges, original or
// inserted, so the lib stage's graph drifts instead of returning to its
// start after every round. It leaves own stale, so one model uses either
// this or deleteOwnBatch, never both.
func (m *model) deleteLiveBatch(rng *rand.Rand, size int) []edge {
	out := make([]edge, 0, size)
	for len(out) < size {
		k := m.live[rng.Intn(len(m.live))]
		m.remove(k)
		out = append(out, keyEdge(k))
	}
	return out
}

// writeBatchOp is one edge batch of a serve script.
type writeBatchOp struct {
	insert bool
	edges  []edge
}

// insertShare of a serve write script's batches insert, the rest delete.
const insertShare = 0.6

// nextWriteBatch draws the next batch of a serve write script: 60 %
// insert batches of non-edges, 40 % delete batches of the script's own
// inserts (an insert instead while there are too few to delete).
func (m *model) nextWriteBatch(rng *rand.Rand, size int, hubShare float64) writeBatchOp {
	if rng.Float64() < 1-insertShare && len(m.own) >= size {
		return writeBatchOp{insert: false, edges: m.deleteOwnBatch(rng, size)}
	}
	return writeBatchOp{insert: true, edges: m.insertBatch(rng, size, hubShare)}
}

// Read classes of the serve scripts; the per-class client medians and the
// traced replay's op classes use these names.
const (
	classHot = iota
	classOpt
	classApprox
	classVertex
	numReadClasses
)

var readClassNames = [numReadClasses]string{"hot", "opt", "approx", "vertex"}

// readOp is one scripted GET.
type readOp struct {
	class int
	path  string // below /graphs/<name>
	k     int    // top-k size (0 for vertex reads)
	algo  string // "" = the server's default for the graph's mode
	v     int32  // vertex id (vertex reads)
}

func topkOp(class, k int, algo string) readOp {
	p := fmt.Sprintf("/topk?k=%d", k)
	if algo != "" {
		p += "&algo=" + algo
	}
	return readOp{class: class, path: p, k: k, algo: algo}
}

func vertexOp(v int32) readOp {
	return readOp{class: classVertex, path: fmt.Sprintf("/vertices/%d/ego-betweenness", v), v: v}
}

// churnBlockSize reads make one block of the read stage's script.
const churnBlockSize = 100

// churnBlock returns the next block of the read stage: exactly 84 hot topk
// reads (k=10 and k=100, auto, served from scores and cached), 5 algo=opt
// and 3 algo=approx with k in 64..191 (128 keys each, so the two never fit
// the 256-entry per-snapshot cache side by side), and 8 single-vertex
// lookups, in seeded order. Fixed proportions per block, instead of a draw
// per read, keep the number of recompute misses in a run from varying with
// the seed: at 5 % a run of 1000 independent draws would see 50 +- 7.
func churnBlock(rng *rand.Rand, n int32) []readOp {
	ops := make([]readOp, 0, churnBlockSize)
	for i := 0; i < 84; i++ {
		ops = append(ops, topkOp(classHot, []int{10, 100}[i%2], ""))
	}
	// The recompute ks are spread evenly over the 128-key range from a
	// seeded offset, so every block carries the same mix of cheap and dear
	// searches and the tail of one run is comparable with the next.
	for i, off := 0, rng.Intn(128); i < 5; i++ {
		ops = append(ops, topkOp(classOpt, 64+(off+i*128/5)%128, "opt"))
	}
	for i, off := 0, rng.Intn(128); i < 3; i++ {
		ops = append(ops, topkOp(classApprox, 64+(off+i*128/3)%128, "approx"))
	}
	for i := 0; i < 8; i++ {
		ops = append(ops, vertexOp(rng.Int31n(n)))
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// pacedRead draws one read of the write stage's paced reader: 80 % hot
// topk, 20 % vertex, all answered from precomputed scores.
func pacedRead(rng *rand.Rand, n int32) readOp {
	if rng.Float64() < 0.8 {
		if rng.Intn(2) == 0 {
			return topkOp(classHot, 10, "")
		}
		return topkOp(classHot, 100, "")
	}
	return vertexOp(rng.Int31n(n))
}

// stageRNG gives each stage of a run its own stream, so lengthening one
// stage does not change another's script.
func stageRNG(seed uint64, st stage) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*1000003 + uint64(st)*7919 + 1)))
}

// newRand seeds the oracles' own draws (which vertices to look up).
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }
