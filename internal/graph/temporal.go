package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// TemporalIndex is the edge→admission-stamp sidecar of a sliding-window
// graph. It answers the one question the expiry scheduler asks every drain —
// "which live edges are older than the cutoff?" — in time proportional to
// the answer, not the graph: the stamps map holds each live edge's stamp,
// and a binary min-heap of (edge, stamp) entries orders them by stamp, so a
// drain pops exactly the entries below the cutoff, O(log m) each.
//
// Deletions are lazy. Removing or re-stamping an edge updates only the
// stamps map; the heap entry it leaves behind is recognized as stale (its
// stamp no longer matches the map) and dropped when it reaches the root.
// Stale entries never outnumber live ones by more than one: past that the
// heap is rebuilt from the map in O(live), which amortizes to O(1) per
// operation that made an entry stale.
//
// The index is not goroutine-safe; the serving layer mutates it under the
// same per-graph write lock as the graph itself.
type TemporalIndex struct {
	windowMS int64
	stamps   map[[2]int32]int64
	heap     []stampedEdge // min-heap by ts
}

type stampedEdge struct {
	e  [2]int32
	ts int64
}

// NewTemporalIndex returns an empty index for a window of windowMS
// milliseconds (which must be positive).
func NewTemporalIndex(windowMS int64) *TemporalIndex {
	if windowMS <= 0 {
		panic(fmt.Sprintf("graph: temporal window %dms must be positive", windowMS))
	}
	return &TemporalIndex{windowMS: windowMS, stamps: make(map[[2]int32]int64)}
}

// NewTemporalIndexFromStamps rebuilds an index from a graph and its per-edge
// stamps in canonical edge order (ascending u, then ascending v, u < v) —
// the shape the snapshot's temporal section persists. It errors when the
// stamp count disagrees with the edge count.
func NewTemporalIndexFromStamps(windowMS int64, g *Graph, stamps []int64) (*TemporalIndex, error) {
	if int64(len(stamps)) != g.NumEdges() {
		return nil, fmt.Errorf("graph: %d stamps for %d edges", len(stamps), g.NumEdges())
	}
	t := NewTemporalIndex(windowMS)
	t.stamps, t.heap = make(map[[2]int32]int64, len(stamps)), make([]stampedEdge, 0, len(stamps))
	g.EachEdge(func(u, v int32) bool {
		ts := stamps[len(t.heap)]
		t.stamps[[2]int32{u, v}] = ts
		t.heap = append(t.heap, stampedEdge{e: [2]int32{u, v}, ts: ts})
		return true
	})
	for i := len(t.heap)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
	return t, nil
}

// WindowMS returns the configured window length in milliseconds.
func (t *TemporalIndex) WindowMS() int64 { return t.windowMS }

// canonical orders an edge's endpoints ascending.
func canonical(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{u, v}
}

// Stamp records (or re-records) the admission stamp of edge (u,v). A
// previous stamp for the same edge is superseded; its heap entry goes
// stale.
func (t *TemporalIndex) Stamp(u, v int32, ts int64) {
	e := canonical(u, v)
	t.stamps[e] = ts
	h := t.heap
	if len(h) == cap(h) { // double: append's 1.25× growth copies the heap ~5 times over
		h = append(make([]stampedEdge, 0, 2*len(h)+64), h...)
	}
	i := len(h)
	h = h[:i+1]
	for ; i > 0 && h[(i-1)/2].ts > ts; i = (i - 1) / 2 {
		h[i] = h[(i-1)/2] // sift the hole up
	}
	h[i] = stampedEdge{e: e, ts: ts}
	t.heap = h
	t.bound()
}

// Forget drops edge (u,v) from the index (an explicit client delete). Its
// heap entry goes stale.
func (t *TemporalIndex) Forget(u, v int32) {
	delete(t.stamps, canonical(u, v))
	t.bound()
}

// ExpireBefore removes every live edge stamped strictly before cutoff and
// returns them in canonical order (ascending u, then v) — a deterministic
// function of the live edge set, independent of insertion history or map
// iteration. It pops only entries below the cutoff, O((expired + stale
// popped) · log m); it never scans the live edges.
func (t *TemporalIndex) ExpireBefore(cutoff int64) [][2]int32 {
	var out [][2]int32
	for len(t.heap) > 0 && t.heap[0].ts < cutoff {
		se := t.pop()
		if ts, ok := t.stamps[se.e]; ok && ts == se.ts { // live, not stale
			delete(t.stamps, se.e)
			out = append(out, se.e)
		}
	}
	t.bound()
	slices.SortFunc(out, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// OldestStamp returns the smallest live stamp, or false for an empty index.
// It drops the stale entries it finds at the root.
func (t *TemporalIndex) OldestStamp() (int64, bool) {
	for len(t.heap) > 0 {
		if ts, ok := t.stamps[t.heap[0].e]; ok && ts == t.heap[0].ts {
			return ts, true
		}
		t.pop()
	}
	return 0, false
}

// bound rebuilds the heap from the stamps map once its entries exceed
// twice the live edges plus one, so stale entries stay O(live).
func (t *TemporalIndex) bound() {
	if len(t.heap) > 2*len(t.stamps)+1 {
		t.heap = make([]stampedEdge, 0, len(t.stamps))
		for e, ts := range t.stamps {
			t.heap = append(t.heap, stampedEdge{e: e, ts: ts})
		}
		for i := len(t.heap)/2 - 1; i >= 0; i-- {
			t.down(i)
		}
	}
}

// pop removes and returns the root.
func (t *TemporalIndex) pop() stampedEdge {
	root, last := t.heap[0], len(t.heap)-1
	t.heap[0], t.heap = t.heap[last], t.heap[:last]
	t.down(0)
	return root
}

func (t *TemporalIndex) down(i int) {
	h := t.heap
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1].ts < h[c].ts {
			c++
		}
		if h[i].ts <= h[c].ts {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// ExportStamps returns the per-edge stamps of g, any view, in canonical
// edge order — the temporal section's persisted shape. Every edge of g must
// be stamped; an unstamped edge is a sidecar/graph divergence and errors.
func (t *TemporalIndex) ExportStamps(g View) ([]int64, error) {
	out := make([]int64, 0, g.NumEdges())
	var err error
	EachEdgeIn(g, func(u, v int32) bool {
		ts, ok := t.stamps[[2]int32{u, v}]
		if !ok {
			err = fmt.Errorf("graph: edge (%d,%d) has no temporal stamp", u, v)
		}
		out = append(out, ts)
		return ok
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
