package dynamic

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/ego"
	"repro/internal/graph"
	"repro/internal/pairmap"
	"repro/internal/par"
)

// This file is the maintainer-state export/import seam of the durability
// layer (DESIGN.md §11): everything a Maintainer holds beyond the graph
// itself, in either form, flattened into plain slices a binary codec can frame, and the
// inverse constructors that restore a maintainer from those slices in O(load)
// — no kernel run, no evidence rehashing. The serving layer exports
// at checkpoint time and imports at recovery time; round-tripping reproduces
// the paper's invariants exactly because the evidence tables travel verbatim
// (slot arrays included), so a recovered maintainer is bit-for-bit the
// in-memory state of a process that never crashed.

// LocalState is the flattened state of an exact Maintainer (ModeLocal): the
// score vector and every vertex's adjacent-pair count and evidence table
// dumped slot-for-slot. It carries no dirty-score list: every recovery
// publishes a full snapshot, so an imported maintainer starts with none.
type LocalState struct {
	// Scores is the exact ego-betweenness vector (length n).
	Scores []float64
	// Adjacent[v] is the number of adjacent pairs of N(v), bucket 0 of v's
	// histogram (length n).
	Adjacent []int64
	// TableSizes[v] is the slot count of v's evidence table (0 = no table
	// was ever allocated for v).
	TableSizes []uint32
	// Keys and Vals are the raw open-addressing slot arrays of every
	// allocated table, concatenated in vertex order; each table occupies
	// TableSizes[v] consecutive slots. Empty and tombstone slots travel
	// too — that is what makes import rehash-free.
	Keys []uint64
	Vals []int32
}

// MapFreeState is the flattened state of a map-free Maintainer (the
// server's ModeLazy), with no dirty list either.
type MapFreeState struct {
	Scores   []float64 // exact, or the ceiling d(d−1)/2 − t(v) where stale (length n)
	Adjacent []int64   // t(v), the adjacent pairs of N(v) (length n)
	Stale    []int32   // the stale vertices, ascending
}

// ExportState flattens the map-holding form's full update state. Scores, Keys, and
// Vals alias live internal storage where possible, so the snapshot is only
// consistent until the next InsertEdge/DeleteEdge/TakeDirtyScores — callers
// encode (or copy) before releasing the lock that serialized the export.
func (m *Maintainer) ExportState() *LocalState {
	st := &LocalState{
		Scores:     m.cb,
		Adjacent:   make([]int64, len(m.s)),
		TableSizes: make([]uint32, len(m.s)),
	}
	total := 0
	for v, s := range m.s {
		if h := m.hist[v]; len(h) > 0 {
			st.Adjacent[v] = h[0]
		}
		if s != nil {
			keys, _ := s.Table()
			total += len(keys)
		}
	}
	st.Keys = make([]uint64, 0, total)
	st.Vals = make([]int32, 0, total)
	for v, s := range m.s {
		if s == nil {
			continue
		}
		keys, vals := s.Table()
		st.TableSizes[v] = uint32(len(keys))
		st.Keys = append(st.Keys, keys...)
		st.Vals = append(st.Vals, vals...)
	}
	return st
}

// NewMaintainerFromState restores an exact Maintainer over g from an exported
// LocalState, taking ownership of the state's slices. The evidence tables are
// adopted slot-for-slot (each table is a sub-slice of the flat arrays), so
// the cost is one validation scan over the state — O(load) — instead of the
// O(Σ|GE(v)|²) recomputation of NewMaintainer. The scan also fills every
// vertex's histogram — bucket 0 from Adjacent, which must lie in
// [0, d(d−1)/2] — and each persisted score must equal its histogram
// folded: a maintained score is a fold, so a score that is not — corrupt, or
// written by a maintainer that summed float deltas — fails the import like
// any structural defect, and callers fall back to the rebuild path.
func NewMaintainerFromState(g *graph.Graph, st *LocalState) (*Maintainer, error) {
	n := g.NumVertices()
	if int32(len(st.Scores)) != n || int32(len(st.Adjacent)) != n || int32(len(st.TableSizes)) != n {
		return nil, fmt.Errorf("dynamic: state covers %d scores / %d adjacent counts / %d tables, graph has %d vertices",
			len(st.Scores), len(st.Adjacent), len(st.TableSizes), n)
	}
	if len(st.Keys) != len(st.Vals) {
		return nil, fmt.Errorf("dynamic: state has %d key slots, %d value slots", len(st.Keys), len(st.Vals))
	}
	// Serial framing pass: which vertices own a table and where each table
	// starts in the flat slot arrays. The per-slot validation below is the
	// expensive part, so it is the part that shards.
	tableVertex := make([]int32, 0, n)
	tableOff := make([]int, 0, n)
	off := 0
	for v := int32(0); v < n; v++ {
		size := int(st.TableSizes[v])
		if size == 0 {
			continue
		}
		if size > len(st.Keys)-off {
			return nil, fmt.Errorf("dynamic: evidence table of vertex %d overruns the slot arrays", v)
		}
		tableVertex = append(tableVertex, v)
		tableOff = append(tableOff, off)
		off += size
	}
	if off != len(st.Keys) {
		return nil, fmt.Errorf("dynamic: %d slot(s) beyond the last evidence table", len(st.Keys)-off)
	}
	// One slab for every Map header (at hundreds of thousands of per-vertex
	// tables, individual allocations would dominate the import) and one for
	// the histograms, d(v) buckets per vertex laid out like g's CSR. Both
	// are filled in parallel: each unit is a contiguous vertex range, whose
	// tables are disjoint sub-slices of the flat arrays, so the only
	// coordination is the join. This scan is the O(load) of the fast boot
	// path — sharding it is what keeps recovery at memory-bandwidth speed.
	offsets, _ := g.CSR()
	maps, hist := make([]*pairmap.Map, n), make([][]int64, n)
	slab, buckets := make([]pairmap.Map, len(tableVertex)), make([]int64, offsets[n])
	units := max(1, min(runtime.GOMAXPROCS(0), int(n)))
	errs := make([]error, units)
	par.For(units, units, func(_, u int) {
		lo, hi := int32(int(n)*u/units), int32(int(n)*(u+1)/units)
		i, _ := slices.BinarySearch(tableVertex, lo)
		for v := lo; v < hi; v++ {
			// Full slice expressions cap capacity so a table or a
			// histogram growing in place can never scribble over its
			// successor.
			h := buckets[offsets[v]:offsets[v+1]:offsets[v+1]]
			if a, d := st.Adjacent[v], int64(len(h)); a < 0 || a > d*(d-1)/2 {
				errs[u] = fmt.Errorf("dynamic: vertex %d of degree %d has %d adjacent pairs", v, d, a)
				return
			} else if a > 0 {
				h[0] = a
			}
			if i < len(tableVertex) && tableVertex[i] == v {
				start := tableOff[i]
				end := start + int(st.TableSizes[v])
				if err := slab[i].ResetFromTable(st.Keys[start:end:end], st.Vals[start:end:end], n, h); err != nil {
					errs[u] = fmt.Errorf("dynamic: evidence table of vertex %d: %w", v, err)
					return
				}
				maps[v] = &slab[i]
				i++
			}
			t := len(h)
			for t > 0 && h[t-1] == 0 {
				t--
			}
			hist[v] = h[:t:t]
			if cb := ego.FoldScore(int32(len(h)), hist[v]); math.Float64bits(cb) != math.Float64bits(st.Scores[v]) {
				errs[u] = fmt.Errorf("dynamic: persisted score of vertex %d is %v, its evidence folds to %v", v, st.Scores[v], cb)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return newMaintainer(g, maps, hist, st.Scores), nil
}

// ExportMapFreeState flattens the map-free form's state. Scores aliases
// live storage: encode before releasing the serializing lock.
func (m *Maintainer) ExportMapFreeState() *MapFreeState {
	st := &MapFreeState{Scores: m.cb, Adjacent: make([]int64, len(m.hist))}
	for v, h := range m.hist {
		if len(h) > 0 {
			st.Adjacent[v] = h[0]
		}
		if m.stale[v] {
			st.Stale = append(st.Stale, int32(v))
		}
	}
	return st
}

// NewMapFreeMaintainerFromState restores a map-free Maintainer over g,
// taking ownership of st's slices, after one O(n) scan: t(v) in
// [0, d(d−1)/2], the stale set ascending, a stale score its ceiling to the
// bit, a fresh one in [0, ceiling] — its exact bits would take the kernel.
func NewMapFreeMaintainerFromState(g *graph.Graph, st *MapFreeState) (*Maintainer, error) {
	n := g.NumVertices()
	if int32(len(st.Scores)) != n || int32(len(st.Adjacent)) != n {
		return nil, fmt.Errorf("dynamic: map-free state covers %d scores / %d adjacent counts, graph has %d vertices",
			len(st.Scores), len(st.Adjacent), n)
	}
	m := newMapFree(g, st.Scores, st.Adjacent)
	for i, v := range st.Stale {
		if v < 0 || v >= n || (i > 0 && v <= st.Stale[i-1]) {
			return nil, fmt.Errorf("dynamic: stale vertex %d out of range or out of order", v)
		}
		m.stale[v] = true
	}
	for v := int32(0); v < n; v++ {
		d := int64(g.Degree(v))
		if t := st.Adjacent[v]; t < 0 || t > d*(d-1)/2 {
			return nil, fmt.Errorf("dynamic: vertex %d of degree %d has %d adjacent pairs", v, d, t)
		}
		ceil, cb := ego.FoldScore(int32(d), m.hist[v]), st.Scores[v]
		if m.stale[v] && math.Float64bits(cb) != math.Float64bits(ceil) {
			return nil, fmt.Errorf("dynamic: stale score of vertex %d is %v, its ceiling %v", v, cb, ceil)
		}
		if !(cb >= 0 && cb <= ceil) {
			return nil, fmt.Errorf("dynamic: score of vertex %d is %v, outside [0, %v]", v, cb, ceil)
		}
	}
	return m, nil
}
