package graph

import (
	"fmt"
	"sort"
)

// TemporalIndex is the edge→admission-stamp sidecar of a sliding-window
// graph. It answers the one question the expiry scheduler asks every drain —
// "which live edges are older than the cutoff?" — in time proportional to
// the answer, not the graph: edges are ring-bucketed by coarse time
// (granularity ≈ window/64), so a drain pops whole expired buckets and only
// ever filters the single bucket the cutoff falls into.
//
// Deletions are lazy. Removing or re-stamping an edge updates only the
// stamps map; the bucket entry it leaves behind is recognized as stale
// (its stamp no longer matches the map) and discarded when its bucket is
// next scanned. Stale entries are bounded by total insertions between
// expiry sweeps, and each is dropped exactly once.
//
// The index is not goroutine-safe; the serving layer mutates it under the
// same per-graph write lock as the graph itself.
type TemporalIndex struct {
	windowMS int64
	gran     int64
	stamps   map[[2]int32]int64
	buckets  map[int64][]stampedEdge
	keys     []int64 // sorted live bucket keys
}

type stampedEdge struct {
	e  [2]int32
	ts int64
}

// temporalBuckets is the target number of buckets spanning one window: fine
// enough that the boundary bucket holds ~1/64 of the window's edges, coarse
// enough that whole-bucket pops dominate.
const temporalBuckets = 64

// NewTemporalIndex returns an empty index for a window of windowMS
// milliseconds (which must be positive).
func NewTemporalIndex(windowMS int64) *TemporalIndex {
	if windowMS <= 0 {
		panic(fmt.Sprintf("graph: temporal window %dms must be positive", windowMS))
	}
	gran := windowMS / temporalBuckets
	if gran == 0 {
		gran = 1
	}
	return &TemporalIndex{
		windowMS: windowMS,
		gran:     gran,
		stamps:   make(map[[2]int32]int64),
		buckets:  make(map[int64][]stampedEdge),
	}
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
	i := 0
	g.EachEdge(func(u, v int32) bool {
		t.Stamp(u, v, stamps[i])
		i++
		return true
	})
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

// bucketKey floors ts onto the bucket grid (toward negative infinity, so
// pre-epoch test stamps bucket consistently).
func (t *TemporalIndex) bucketKey(ts int64) int64 {
	k := ts / t.gran
	if ts < 0 && ts%t.gran != 0 {
		k--
	}
	return k
}

// Stamp records (or re-records) the admission stamp of edge (u,v). A
// previous stamp for the same edge is superseded; its bucket entry goes
// stale.
func (t *TemporalIndex) Stamp(u, v int32, ts int64) {
	e := canonical(u, v)
	t.stamps[e] = ts
	k := t.bucketKey(ts)
	b, ok := t.buckets[k]
	if !ok {
		i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= k })
		t.keys = append(t.keys, 0)
		copy(t.keys[i+1:], t.keys[i:])
		t.keys[i] = k
	}
	t.buckets[k] = append(b, stampedEdge{e: e, ts: ts})
}

// Forget drops edge (u,v) from the index (an explicit client delete). Its
// bucket entry goes stale and is discarded on the next scan of that bucket.
func (t *TemporalIndex) Forget(u, v int32) {
	delete(t.stamps, canonical(u, v))
}

// ExpireBefore removes every live edge stamped strictly before cutoff and
// returns them in canonical order (ascending u, then v) — a deterministic
// function of the live edge set, independent of insertion history or map
// iteration. Cost is O(expired + boundary-bucket size), never O(edges).
func (t *TemporalIndex) ExpireBefore(cutoff int64) [][2]int32 {
	var out [][2]int32
	for len(t.keys) > 0 {
		k := t.keys[0]
		if k*t.gran >= cutoff {
			break // this bucket and all later ones start at or after cutoff
		}
		b := t.buckets[k]
		if (k+1)*t.gran <= cutoff {
			// Entirely below cutoff: pop the whole bucket.
			for _, se := range b {
				if ts, ok := t.stamps[se.e]; ok && ts == se.ts {
					delete(t.stamps, se.e)
					out = append(out, se.e)
				}
			}
			delete(t.buckets, k)
			t.keys = t.keys[1:]
			continue
		}
		// Boundary bucket: filter entries below cutoff, keep the rest.
		keep := b[:0]
		for _, se := range b {
			ts, ok := t.stamps[se.e]
			if !ok || ts != se.ts {
				continue // stale
			}
			if se.ts < cutoff {
				delete(t.stamps, se.e)
				out = append(out, se.e)
			} else {
				keep = append(keep, se)
			}
		}
		if len(keep) == 0 {
			delete(t.buckets, k)
			t.keys = t.keys[1:]
		} else {
			t.buckets[k] = keep
		}
		break
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// OldestStamp returns the smallest live stamp, or false for an empty index.
// It compacts fully-stale leading buckets as it scans, so repeated calls on
// an idle graph stay cheap.
func (t *TemporalIndex) OldestStamp() (int64, bool) {
	for len(t.keys) > 0 {
		k := t.keys[0]
		b := t.buckets[k]
		keep := b[:0]
		oldest, found := int64(0), false
		for _, se := range b {
			ts, ok := t.stamps[se.e]
			if !ok || ts != se.ts {
				continue // stale
			}
			keep = append(keep, se)
			if !found || se.ts < oldest {
				oldest = se.ts
				found = true
			}
		}
		if !found {
			delete(t.buckets, k)
			t.keys = t.keys[1:]
			continue
		}
		t.buckets[k] = keep
		return oldest, true
	}
	return 0, false
}

// ExportStamps returns g's per-edge stamps in canonical edge order — the
// temporal section's persisted shape. Every edge of g must be stamped; an
// unstamped edge is a sidecar/graph divergence and errors.
func (t *TemporalIndex) ExportStamps(g *Graph) ([]int64, error) {
	out := make([]int64, 0, g.NumEdges())
	var missing [2]int32
	ok := true
	g.EachEdge(func(u, v int32) bool {
		ts, found := t.stamps[[2]int32{u, v}]
		if !found {
			missing = [2]int32{u, v}
			ok = false
			return false
		}
		out = append(out, ts)
		return true
	})
	if !ok {
		return nil, fmt.Errorf("graph: edge (%d,%d) has no temporal stamp", missing[0], missing[1])
	}
	return out, nil
}
