package dynamic

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// script drives m (a *Maintainer or *LazyTopK via the closures) through a
// deterministic pseudo-random toggle sequence.
func runScript(t *testing.T, rng *rand.Rand, n int32, steps int,
	hasEdge func(u, v int32) bool, insert, del func(u, v int32) error) {
	t.Helper()
	for step := 0; step < steps; step++ {
		u, v := rng.Int32N(n), rng.Int32N(n)
		if u == v {
			continue
		}
		var err error
		if hasEdge(u, v) {
			err = del(u, v)
		} else {
			err = insert(u, v)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestLocalStateRoundTrip checks the tentpole property of the state codec at
// this layer: export → import reproduces a maintainer that is behaviorally
// identical to the original, not just at the moment of the snapshot but under
// continued updates (the recovery path replays a WAL tail on top of the
// imported state). Scores and evidence maps are compared exactly — the
// tables travel verbatim, so there is no tolerance to hide behind.
func TestLocalStateRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x57A7E))
		g := gen.Random(seed, 26)
		m := NewMaintainer(g)
		n := g.NumVertices()
		runScript(t, rng, n, 40, m.Graph().HasEdge, m.InsertEdge, m.DeleteEdge)

		frozen := m.Graph().Freeze(1)
		st := m.ExportState()
		// Deep-copy the state the way the binary codec does, so the restored
		// maintainer shares nothing with the original.
		cp := &LocalState{
			Scores:     append([]float64(nil), st.Scores...),
			Adjacent:   append([]int64(nil), st.Adjacent...),
			TableSizes: append([]uint32(nil), st.TableSizes...),
			Keys:       append([]uint64(nil), st.Keys...),
			Vals:       append([]int32(nil), st.Vals...),
		}
		m2, err := NewMaintainerFromState(frozen, cp)
		if err != nil {
			t.Fatalf("seed %d: import: %v", seed, err)
		}
		// An imported maintainer starts with no dirty scores: recovery
		// publishes a full snapshot after the import.
		if d := m2.TakeDirtyScores(); len(d) != 0 {
			t.Fatalf("seed %d: imported maintainer starts with %d dirty scores", seed, len(d))
		}
		m.TakeDirtyScores()

		// Same continued script on both; scores must stay bit-identical and
		// match recomputation (the restored evidence must be logically right,
		// not merely score-compatible).
		rng1 := rand.New(rand.NewPCG(seed, 0xBEEF))
		rng2 := rand.New(rand.NewPCG(seed, 0xBEEF))
		runScript(t, rng1, n, 40, m.Graph().HasEdge, m.InsertEdge, m.DeleteEdge)
		runScript(t, rng2, n, 40, m2.Graph().HasEdge, m2.InsertEdge, m2.DeleteEdge)
		for v := int32(0); v < n; v++ {
			if m.CB(v) != m2.CB(v) {
				t.Fatalf("seed %d: CB(%d) diverged: %v vs %v", seed, v, m.CB(v), m2.CB(v))
			}
		}
		assertMatchesScratch(t, m2, "post-import script")

		// From there both mark the same dirty set (order included — it is
		// append order).
		if d1, d2 := m.TakeDirtyScores(), m2.TakeDirtyScores(); !slices.Equal(d1, d2) {
			t.Fatalf("seed %d: dirty drains differ: %v vs %v", seed, d1, d2)
		}
	}
}

// TestMapFreeStateRoundTrip is the map-free analogue: export → import
// reproduces the scores, t and stale flags bit for bit, also under continued
// updates, with the same dirty drains.
func TestMapFreeStateRoundTrip(t *testing.T) {
	for seed := uint64(20); seed < 28; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x1A2))
		g := gen.Random(seed, 26)
		m := NewMapFreeMaintainer(g)
		n := g.NumVertices()
		runScript(t, rng, n, 40, m.Graph().HasEdge, m.InsertEdge, m.DeleteEdge)
		m.TakeDirtyScores()

		st := m.ExportMapFreeState()
		cp := &MapFreeState{
			Scores:   append([]float64(nil), st.Scores...),
			Adjacent: append([]int64(nil), st.Adjacent...),
			Stale:    append([]int32(nil), st.Stale...),
		}
		m2, err := NewMapFreeMaintainerFromState(m.Graph().Freeze(1), cp)
		if err != nil {
			t.Fatalf("seed %d: import: %v", seed, err)
		}
		same := func(when string) {
			t.Helper()
			for v := int32(0); v < n; v++ {
				if math.Float64bits(m.CB(v)) != math.Float64bits(m2.CB(v)) || m.stale[v] != m2.stale[v] || m.hist[v][0] != m2.hist[v][0] {
					t.Fatalf("seed %d %s: vertex %d diverged: (%v %v %d) vs (%v %v %d)", seed, when, v,
						m.CB(v), m.stale[v], m.hist[v][0], m2.CB(v), m2.stale[v], m2.hist[v][0])
				}
			}
		}
		same("at import")
		rng1 := rand.New(rand.NewPCG(seed, 0xF00))
		rng2 := rand.New(rand.NewPCG(seed, 0xF00))
		runScript(t, rng1, n, 40, m.Graph().HasEdge, m.InsertEdge, m.DeleteEdge)
		runScript(t, rng2, n, 40, m2.Graph().HasEdge, m2.InsertEdge, m2.DeleteEdge)
		same("after the script")
		if d1, d2 := m.TakeDirtyScores(), m2.TakeDirtyScores(); !slices.Equal(d1, d2) {
			t.Fatalf("seed %d: dirty drains differ: %v vs %v", seed, d1, d2)
		}
	}
}

// TestStateImportRejects enumerates the structural defects the import
// constructors must refuse — each one is a fallback-to-rebuild trigger in
// the recovery path, so it must be an error, never a panic or a silently
// wrong maintainer.
func TestStateImportRejects(t *testing.T) {
	// The pair (0, 3) has a connector in the egos of 1 and 2, so both carry
	// an evidence table.
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	base := func() *LocalState { return NewMaintainer(g).ExportState() }

	localCases := map[string]func(st *LocalState){
		"short scores":      func(st *LocalState) { st.Scores = st.Scores[:2] },
		"short adjacent":    func(st *LocalState) { st.Adjacent = st.Adjacent[:2] },
		"negative adjacent": func(st *LocalState) { st.Adjacent[3] = -1 },
		"adjacent beyond the pairs": func(st *LocalState) {
			st.Adjacent[0] = 2 // vertex 0 has degree 2: one pair
		},
		"short tables":       func(st *LocalState) { st.TableSizes = st.TableSizes[:2] },
		"keys/vals differ":   func(st *LocalState) { st.Vals = st.Vals[:len(st.Vals)-1] },
		"NaN score":          func(st *LocalState) { st.Scores[1] = math.NaN() },
		"score off its fold": func(st *LocalState) { st.Scores[2] = math.Nextafter(st.Scores[2], 0) },
		"count beyond the degree": func(st *LocalState) {
			for i, k := range st.Keys {
				if k != 0 && k != ^uint64(0) {
					st.Vals[i] = 3 // every vertex of g has degree ≤ 3
					return
				}
			}
		},
		"table overrun":  func(st *LocalState) { st.TableSizes[0] += 8 },
		"trailing slots": func(st *LocalState) { st.Keys = append(st.Keys, 0); st.Vals = append(st.Vals, 0) },
		"bad table size": func(st *LocalState) { st.TableSizes[0] = 3 },
	}
	for name, corrupt := range localCases {
		st := base()
		// Detach from the live maintainer before corrupting.
		st.Scores = append([]float64(nil), st.Scores...)
		st.TableSizes = append([]uint32(nil), st.TableSizes...)
		st.Keys = append([]uint64(nil), st.Keys...)
		st.Vals = append([]int32(nil), st.Vals...)
		corrupt(st)
		if _, err := NewMaintainerFromState(g, st); err == nil {
			t.Errorf("local %s: accepted", name)
		}
	}

	// The delete of (1, 3) leaves 1, 2 and 3 stale; vertex 0 stays fresh
	// with its one adjacent pair (ceiling 0), and 2's ceiling is 2.
	mf := NewMapFreeMaintainer(g)
	if err := mf.DeleteEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	g2 := mf.Graph().Freeze(1)
	mapFreeCases := map[string]func(st *MapFreeState){
		"short scores":              func(st *MapFreeState) { st.Scores = st.Scores[:1] },
		"short adjacent":            func(st *MapFreeState) { st.Adjacent = st.Adjacent[:1] },
		"negative adjacent":         func(st *MapFreeState) { st.Adjacent[3] = -1 },
		"adjacent beyond the pairs": func(st *MapFreeState) { st.Adjacent[0] = 2 },
		"NaN score":                 func(st *MapFreeState) { st.Scores[0] = math.NaN() },
		"score above its ceiling":   func(st *MapFreeState) { st.Scores[0] = 0.5 },
		"stale score off its ceiling": func(st *MapFreeState) {
			st.Scores[2] = math.Nextafter(st.Scores[2], 0)
		},
		"stale out of range":    func(st *MapFreeState) { st.Stale = append(st.Stale, 99) },
		"stale out of order":    func(st *MapFreeState) { st.Stale[0], st.Stale[1] = st.Stale[1], st.Stale[0] },
		"stale vertex repeated": func(st *MapFreeState) { st.Stale = append(st.Stale, st.Stale[len(st.Stale)-1]) },
	}
	for name, corrupt := range mapFreeCases {
		st := mf.ExportMapFreeState()
		st.Scores = append([]float64(nil), st.Scores...)
		corrupt(st)
		if _, err := NewMapFreeMaintainerFromState(g2, st); err == nil {
			t.Errorf("map-free %s: accepted", name)
		}
	}
	if _, err := NewMapFreeMaintainerFromState(g2, mf.ExportMapFreeState()); err != nil {
		t.Fatalf("map-free control: %v", err)
	}
}
