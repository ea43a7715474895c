package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# comment line
% another comment

0 1
1 2
2 0
0 1
3 3
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 4, 3", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "1 x\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q: want error", bad)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := mustG(t, 7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 5}, {5, 6}, {0, 6}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip m=%d, want %d", back.NumEdges(), g.NumEdges())
	}
	g.EachEdge(func(u, v int32) bool {
		if !containsSorted(back.Neighbors(u), v) {
			t.Errorf("edge (%d,%d) lost", u, v)
		}
		return true
	})
}

func genRing(n int32) [][2]int32 {
	edges := make([][2]int32, n)
	for i := int32(0); i < n; i++ {
		edges[i] = [2]int32{i, (i + 1) % n}
	}
	return edges
}

func TestSampleEdges(t *testing.T) {
	g := mustG(t, 50, genRing(50))
	sub := SampleEdges(g, 0.5, 7)
	if sub.NumVertices() != 50 {
		t.Fatalf("vertex set changed: %d", sub.NumVertices())
	}
	if sub.NumEdges() >= g.NumEdges() || sub.NumEdges() == 0 {
		t.Fatalf("sampled m=%d of %d, want strict subset", sub.NumEdges(), g.NumEdges())
	}
	sub.EachEdge(func(u, v int32) bool {
		if !containsSorted(g.Neighbors(u), v) {
			t.Errorf("sample invented edge (%d,%d)", u, v)
		}
		return true
	})
	full := SampleEdges(g, 1.0, 7)
	if full.NumEdges() != g.NumEdges() {
		t.Fatal("frac=1 must keep all edges")
	}
	// Determinism.
	again := SampleEdges(g, 0.5, 7)
	if again.NumEdges() != sub.NumEdges() {
		t.Fatal("same seed must give same sample")
	}
}

func TestSampleVertices(t *testing.T) {
	g := mustG(t, 60, genRing(60))
	sub, orig := SampleVertices(g, 0.4, 11)
	if int32(len(orig)) != sub.NumVertices() {
		t.Fatalf("mapping length %d != n %d", len(orig), sub.NumVertices())
	}
	if sub.NumVertices() == 0 || sub.NumVertices() >= 60 {
		t.Fatalf("sampled n=%d, want strict subset", sub.NumVertices())
	}
	// Every sampled edge must map back to an original edge.
	sub.EachEdge(func(u, v int32) bool {
		if !containsSorted(g.Neighbors(orig[u]), orig[v]) {
			t.Errorf("induced edge (%d,%d) not present in original", orig[u], orig[v])
		}
		return true
	})
}
