package approx

import (
	"slices"
	"testing"

	"repro/internal/ego"
	"repro/internal/graph"
)

// TestTopKBreaksTiesLikeExact: when every answer candidate resolves
// exactly, approx names exact's vertices, score ties at the k-th rank
// included — even where the first k admitted, which ≺ takes from a degree
// class's highest id down, cut the tied class.
func TestTopKBreaksTiesLikeExact(t *testing.T) {
	// 100 disjoint 3-stars: every center scores 3 = its static bound, every
	// leaf 0. At k = 5 the first race holds the 5 highest-id centers; exact
	// names the 5 lowest-id ones, which escalation admits because their
	// bound ties the k-th lower bound.
	var stars [][2]int32
	for c := int32(0); c < 100; c++ {
		for l := int32(1); l <= 3; l++ {
			stars = append(stars, [2]int32{4 * c, 4*c + l})
		}
	}
	for name, g := range map[string]*graph.Graph{
		"edgeless": graph.MustFromEdges(20000, nil),
		"stars":    graph.MustFromEdges(400, stars),
	} {
		for _, k := range []int{1, 5, 100} {
			want := ego.TopKExact(g, k)
			got, st := TopK(g, k, Options{})
			if !slices.Equal(got, want) {
				t.Fatalf("%s k=%d: approx %v, exact %v", name, k, got, want)
			}
			if st.Sampled != 0 {
				t.Fatalf("%s k=%d: %d candidates sampled, want every one resolved exactly", name, k, st.Sampled)
			}
		}
	}
}
