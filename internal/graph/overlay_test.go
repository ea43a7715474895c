package graph

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// assertViewEquiv requires two views to describe the same graph: identical
// shape, per-vertex degrees and neighbor lists.
func assertViewEquiv(t *testing.T, label string, got, want View) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("%s: n = %d, want %d", label, got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: m = %d, want %d", label, got.NumEdges(), want.NumEdges())
	}
	n := want.NumVertices()
	for v := int32(0); v < n; v++ {
		gn, wn := got.Neighbors(v), want.Neighbors(v)
		if len(gn) != len(wn) || got.Degree(v) != want.Degree(v) {
			t.Fatalf("%s: degree(%d) = %d (len %d), want %d", label, v, got.Degree(v), len(gn), want.Degree(v))
		}
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("%s: neighbors(%d)[%d] = %d, want %d", label, v, i, gn[i], wn[i])
			}
		}
	}
}

// randomScriptStep applies one random valid mutation to d, occasionally
// growing the vertex set, and reports whether anything changed.
func randomScriptStep(rng *rand.Rand, d *DynGraph) bool {
	n := d.NumVertices()
	u, v := int32(rng.IntN(int(n))), int32(rng.IntN(int(n)))
	if rng.IntN(16) == 0 {
		v = n + int32(rng.IntN(3)) // grow, possibly with isolated gaps
	}
	if u == v {
		return false
	}
	if d.HasEdge(u, v) && rng.IntN(3) == 0 {
		return d.DeleteEdge(u, v) == nil
	}
	if !d.HasEdge(u, v) {
		return d.InsertEdge(u, v) == nil
	}
	return false
}

// TestOverlayViewEquivalence is the core property: for random update
// scripts, the chain of FreezeOverlay publications — interleaved with
// Materialize compactions and Rebase re-anchorings — always equals a
// from-scratch Freeze of the same dynamic graph.
func TestOverlayViewEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x0E61))
			d := emptyDyn(24)
			// Seed a random base, then freeze it as the overlay's base CSR.
			for i := 0; i < 60; i++ {
				randomScriptStep(rng, d)
			}
			d.TakeDirty()
			var view View = d.Freeze(1)
			steps := 0
			for pub := 0; pub < 40; pub++ {
				for i := 0; i < 1+rng.IntN(5); i++ {
					if randomScriptStep(rng, d) {
						steps++
					}
				}
				view = d.FreezeOverlay(view)
				assertViewEquiv(t, fmt.Sprintf("pub %d (%d steps)", pub, steps), view, d.Freeze(1))
				if ov := view.(*Overlay); ov.Depth() >= 5 || rng.IntN(8) == 0 {
					compacted := ov.Materialize(2)
					assertViewEquiv(t, fmt.Sprintf("compact @ pub %d", pub), compacted, d.Freeze(1))
					if err := compacted.Validate(); err != nil {
						t.Fatalf("compacted CSR invalid: %v", err)
					}
					view = compacted
				}
			}
		})
	}
}

// TestOverlayRebase exercises the compactor's race repair: layers published
// after the materialized prefix are re-anchored onto the fresh base and
// must keep describing the newest state.
func TestOverlayRebase(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0x0E61))
	d := emptyDyn(30)
	for i := 0; i < 80; i++ {
		randomScriptStep(rng, d)
	}
	d.TakeDirty()
	base := d.Freeze(1)
	var view View = base

	// Three published layers; remember the middle one as the compacted-at
	// point, then stack two more on top (the "drains that raced ahead").
	var at View
	for pub := 0; pub < 5; pub++ {
		for i := 0; i < 3; i++ {
			randomScriptStep(rng, d)
		}
		view = d.FreezeOverlay(view)
		if pub == 2 {
			at = view
		}
	}
	want := d.Freeze(1)

	g := at.(*Overlay).Materialize(1)
	rebased := view.(*Overlay).Rebase(at, g)
	assertViewEquiv(t, "rebased", rebased, want)
	if depth := rebased.(*Overlay).Depth(); depth != 2 {
		t.Fatalf("rebased depth = %d, want 2 (the layers above the compaction point)", depth)
	}

	// Rebasing the compaction point itself yields the bare CSR.
	if v := at.(*Overlay).Rebase(at, g); v != View(g) {
		t.Fatalf("Rebase(at, at) = %v; want the bare CSR", v)
	}
}

// TestOverlayIsolatedGrowth: growing the vertex set past the base leaves
// untouched new vertices isolated, visible, and degree 0.
func TestOverlayIsolatedGrowth(t *testing.T) {
	d := emptyDyn(4)
	mustEdge := func(u, v int32) {
		t.Helper()
		if err := d.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(0, 1)
	mustEdge(1, 2)
	d.TakeDirty()
	base := d.Freeze(1)

	mustEdge(2, 9) // grows to 10 vertices; 3..8 isolated
	ov := d.FreezeOverlay(base)
	if ov.NumVertices() != 10 || ov.NumEdges() != 3 {
		t.Fatalf("overlay shape (n=%d, m=%d), want (10, 3)", ov.NumVertices(), ov.NumEdges())
	}
	for v := int32(4); v < 9; v++ {
		if ov.Degree(v) != 0 || ov.Neighbors(v) != nil {
			t.Fatalf("vertex %d: degree %d, want isolated", v, ov.Degree(v))
		}
	}
	if !containsSorted(ov.Neighbors(9), 2) || containsSorted(ov.Neighbors(9), 3) {
		t.Fatal("edge visibility wrong after growth")
	}
	assertViewEquiv(t, "growth", ov, d.Freeze(1))
}

// TestFreezeOverlayIsOBatch: a publication after a tiny batch copies only
// the dirtied adjacency lists, not the graph.
func TestFreezeOverlayIsOBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0x0E61))
	d := emptyDyn(200)
	for i := 0; i < 600; i++ {
		randomScriptStep(rng, d)
	}
	d.TakeDirty()
	base := d.Freeze(1)
	if err := d.InsertEdge(0, 199); err != nil {
		t.Fatal(err)
	}
	ov := d.FreezeOverlay(base)
	if ov.DirtyVertices() != 2 {
		t.Fatalf("DirtyVertices = %d, want 2 (the batch endpoints)", ov.DirtyVertices())
	}
	if len(d.dirty) != 0 {
		t.Fatalf("dirty tracking not drained: %d", len(d.dirty))
	}
	// The overlay must be detached from later in-place mutations.
	if err := d.DeleteEdge(0, 199); err != nil {
		t.Fatal(err)
	}
	if !containsSorted(ov.Neighbors(0), 199) {
		t.Fatal("overlay aliases the mutable adjacency")
	}
}

// FuzzOverlayEquivalence drives the overlay chain with a fuzzer-chosen
// mutation script and checks it against a from-scratch freeze after every
// publication.
func FuzzOverlayEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0x00, 0x80, 0x40, 0x20, 0x10})
	f.Add([]byte{9, 9, 9, 1, 1, 1, 200, 200})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		d := emptyDyn(12)
		var view View = d.Freeze(1)
		for i := 0; i+1 < len(script); i += 2 {
			u := int32(script[i] % 14)
			v := int32(script[i+1] % 14)
			if u == v {
				continue
			}
			if d.HasEdge(u, v) {
				_ = d.DeleteEdge(u, v)
			} else {
				_ = d.InsertEdge(u, v)
			}
			if i%6 == 0 {
				view = d.FreezeOverlay(view)
			}
			if ov, ok := view.(*Overlay); ok && ov.Depth() > 6 {
				view = ov.Materialize(1)
			}
		}
		view = d.FreezeOverlay(view)
		assertViewEquiv(t, "fuzz", view, d.Freeze(1))
	})
}
