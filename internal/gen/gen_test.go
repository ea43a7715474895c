package gen

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestErdosRenyiShape(t *testing.T) {
	g := ErdosRenyi(100, 300, 1)
	if g.NumVertices() != 100 || g.NumEdges() != 300 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Requesting more edges than possible clamps to the complete graph.
	k := ErdosRenyi(10, 1000, 2)
	if k.NumEdges() != 45 {
		t.Fatalf("clamp: m=%d, want 45", k.NumEdges())
	}
}

func TestDeterminism(t *testing.T) {
	for name, mk := range map[string]func(seed uint64) *graph.Graph{
		"er":  func(s uint64) *graph.Graph { return ErdosRenyi(200, 500, s) },
		"ba":  func(s uint64) *graph.Graph { return BarabasiAlbert(200, 3, s) },
		"cl":  func(s uint64) *graph.Graph { return ChungLu(200, 2.3, 6, 50, s) },
		"ws":  func(s uint64) *graph.Graph { return WattsStrogatz(200, 6, 0.2, s) },
		"aff": func(s uint64) *graph.Graph { return Affiliation(200, 80, 5, 1, s) },
	} {
		a, b := mk(7), mk(7)
		if a.NumEdges() != b.NumEdges() {
			t.Errorf("%s: same seed, different m: %d vs %d", name, a.NumEdges(), b.NumEdges())
		}
		equal := true
		a.EachEdge(func(u, v int32) bool {
			if !slices.Contains(b.Neighbors(u), v) {
				equal = false
				return false
			}
			return true
		})
		if !equal {
			t.Errorf("%s: same seed, different edges", name)
		}
		c := mk(8)
		if c.NumEdges() == a.NumEdges() {
			// Different seeds may coincidentally match in m; check edges.
			same := true
			a.EachEdge(func(u, v int32) bool {
				if !slices.Contains(c.Neighbors(u), v) {
					same = false
					return false
				}
				return true
			})
			if same {
				t.Errorf("%s: different seed produced identical graph", name)
			}
		}
	}
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeStats(g)
	if st.AvgDeg < 4 || st.AvgDeg > 8 {
		t.Errorf("avg degree %v outside plausible range for mPer=3", st.AvgDeg)
	}
	// Preferential attachment must create hubs: dmax well above average.
	if float64(st.DMax) < 4*st.AvgDeg {
		t.Errorf("dmax=%d too small for a BA graph (avg %v)", st.DMax, st.AvgDeg)
	}
}

func TestChungLuSkewControl(t *testing.T) {
	flat := ChungLu(2000, 3.0, 8, 0, 21)
	skew := ChungLu(2000, 1.9, 8, 0, 21)
	sf := graph.ComputeStats(flat)
	ss := graph.ComputeStats(skew)
	if ss.DMax <= sf.DMax {
		t.Errorf("gamma=1.9 dmax (%d) should exceed gamma=3.0 dmax (%d)", ss.DMax, sf.DMax)
	}
	// Average degree should land near the request (loose band: the cap and
	// min(1, ·) truncation bias it down).
	if sf.AvgDeg < 4 || sf.AvgDeg > 12 {
		t.Errorf("avg degree %v far from requested 8", sf.AvgDeg)
	}
	// maxDeg cap must bind.
	capped := ChungLu(2000, 1.9, 8, 40, 21)
	if got := graph.ComputeStats(capped).DMax; got > 80 {
		t.Errorf("capped dmax=%d, expected near 40", got)
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	g := WattsStrogatz(500, 6, 0.1, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeStats(g)
	// Ring lattice keeps m = n*k/2 exactly (rewiring preserves edge count
	// except for abandoned rewires, which keep the original edge).
	if st.M != 1500 {
		t.Errorf("m=%d, want 1500", st.M)
	}
	// Small beta keeps strong clustering: plenty of triangles.
	if st.Triangles < 500 {
		t.Errorf("triangles=%d, too few for beta=0.1 lattice", st.Triangles)
	}
}

func TestAffiliationClustering(t *testing.T) {
	g := Affiliation(1000, 400, 6, 1, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeStats(g)
	er := ErdosRenyi(1000, st.M, 9)
	ste := graph.ComputeStats(er)
	if st.Triangles <= 3*ste.Triangles {
		t.Errorf("affiliation triangles (%d) should dwarf ER triangles (%d)", st.Triangles, ste.Triangles)
	}
}

func TestRandomGraphBounds(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		g := Random(seed, 25)
		if g.NumVertices() < 4 || g.NumVertices() > 25 {
			t.Fatalf("seed %d: n=%d outside [4,25]", seed, g.NumVertices())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
