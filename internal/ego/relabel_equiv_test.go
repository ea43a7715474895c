package ego

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestOptBSearchLabeledEquivalence pins what remains of degree relabeling
// (DESIGN.md §12) now that nothing serves through it: OptBSearchLabeled on
// the degree-relabeled CSR, read back through Ext, follows the same search
// trajectory as OptBSearch on the original graph — the same external
// vertices in the same order with the same score bits, and identical
// SearchStats — on the benchmark's two shapes at smoke scale.
func TestOptBSearchLabeledEquivalence(t *testing.T) {
	shapes := map[string]*graph.Graph{
		"collab":   gen.Affiliation(1200, 600, 5.5, 1, 7),
		"powerlaw": gen.ChungLu(1500, 2.2, 5.3, 120, 7),
	}
	const theta = 1.05
	for name, g := range shapes {
		rl := graph.DegreeRelabel(g)
		for _, k := range []int{1, 10, 100} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				want, wantStats := OptBSearch(g, k, theta)
				got, gotStats := OptBSearchLabeled(rl.G, k, theta, rl.Ext)
				if gotStats != wantStats {
					t.Fatalf("SearchStats differ:\nrelabeled %+v\nplain     %+v", gotStats, wantStats)
				}
				if len(got) != len(want) {
					t.Fatalf("relabeled returned %d results, plain %d", len(got), len(want))
				}
				for i := range want {
					if got[i].V != want[i].V || math.Float64bits(got[i].CB) != math.Float64bits(want[i].CB) {
						t.Fatalf("rank %d: relabeled (%d, %.17g) vs plain (%d, %.17g)",
							i, got[i].V, got[i].CB, want[i].V, want[i].CB)
					}
				}
			})
		}
	}
}
