//go:build !race

package graph

import (
	"testing"
)

// TestOverlayCleanReadZeroAlloc pins the clean-vertex fast path's cost
// contract (DESIGN.md §12): reading a vertex no layer of the chain ever
// dirtied allocates nothing and returns the base CSR's own slice — one
// dirty-index word test, then the base row. The file is excluded under
// -race because the race runtime instruments allocations.
func TestOverlayCleanReadZeroAlloc(t *testing.T) {
	d := emptyDyn(64)
	for v := int32(1); v < 64; v++ {
		if err := d.InsertEdge(0, v); err != nil {
			t.Fatal(err)
		}
		if v > 1 {
			if err := d.InsertEdge(v-1, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.TakeDirty()
	base := d.Freeze(1)

	// Two stacked layers dirtying only vertices 2 and 3: everything else
	// must resolve through the clean fast path.
	var view View = base
	if err := d.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	view = d.FreezeOverlay(view)
	if err := d.InsertEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	ov := d.FreezeOverlay(view)

	var got []int32
	clean := int32(40)
	if allocs := testing.AllocsPerRun(100, func() {
		got = ov.Neighbors(clean)
	}); allocs != 0 {
		t.Fatalf("clean-vertex Neighbors allocates %v per read, want 0", allocs)
	}
	want := base.Neighbors(clean)
	if len(got) == 0 || len(got) != len(want) || &got[0] != &want[0] {
		t.Fatalf("clean-vertex read did not return the base CSR slice (got %p len %d, want %p len %d)",
			got, len(got), want, len(want))
	}

	// Dirty vertices still read correctly (and the chain walk still answers
	// through the newest layer).
	if ov.idx.clean(2) || ov.idx.clean(3) {
		t.Fatal("dirtied vertices report clean")
	}
	if !containsSorted(ov.Neighbors(2), 3) {
		t.Fatal("re-inserted edge (2,3) missing from the top layer")
	}
}
