package dynamic

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/paperex"
)

// TestInsertVertexMatchesScratch: adding a vertex wired to several
// neighbors must leave every CB equal to a from-scratch recomputation.
func TestInsertVertexMatchesScratch(t *testing.T) {
	m := NewMaintainer(paperex.New())
	v, err := m.InsertVertex([]int32{paperex.C, paperex.D, paperex.I})
	if err != nil {
		t.Fatal(err)
	}
	if v != int32(paperex.NumVertices) {
		t.Fatalf("new id = %d, want %d", v, paperex.NumVertices)
	}
	assertMatchesScratch(t, m, "insert vertex")
	// The new vertex's own CB: neighbors c,d,i — (c,d) adjacent, (c,i) and
	// (d,i): d-i adjacent, c-i not adjacent with no connectors inside
	// {c,d,i}... connectors of (c,i) within N(v): d (d adj c, d adj i).
	want := 0.5
	if math.Abs(m.CB(v)-want) > 1e-9 {
		t.Errorf("CB(new) = %v, want %v", m.CB(v), want)
	}
}

// TestDeleteVertexIsolates: removing a vertex zeroes it and restores the
// rest to the graph-without-it values.
func TestDeleteVertexIsolates(t *testing.T) {
	m := NewMaintainer(paperex.New())
	if err := m.DeleteVertex(paperex.X); err != nil {
		t.Fatal(err)
	}
	if m.CB(paperex.X) != 0 {
		t.Errorf("CB(x) = %v after deletion", m.CB(paperex.X))
	}
	if m.Graph().Degree(paperex.X) != 0 {
		t.Error("x still has neighbors")
	}
	assertMatchesScratch(t, m, "delete vertex")
	// f lost its spoke to x: CB(f) recomputable from scratch — covered by
	// assertMatchesScratch; sanity: it must have changed from 11.
	if math.Abs(m.CB(paperex.F)-11) < 1e-9 {
		t.Error("CB(f) unchanged although (f,x) was removed")
	}
}

func TestInsertVertexIsolated(t *testing.T) {
	m := NewMaintainer(paperex.New())
	v, err := m.InsertVertex(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.CB(v) != 0 || m.Graph().Degree(v) != 0 {
		t.Error("isolated vertex must have zero degree and CB")
	}
	assertMatchesScratch(t, m, "isolated vertex")
}

func TestInsertVertexRollsBackOnError(t *testing.T) {
	m := NewMaintainer(paperex.New())
	before := append([]float64(nil), m.All()...)
	// Duplicate neighbor forces a mid-series failure after some edges
	// succeeded; the series must roll back.
	if _, err := m.InsertVertex([]int32{paperex.A, paperex.B, paperex.A}); err == nil {
		t.Fatal("duplicate neighbor must fail")
	}
	for v, want := range before {
		if math.Abs(m.CB(int32(v))-want) > 1e-9 {
			t.Errorf("rollback: CB(%d) = %v, want %v", v, m.CB(int32(v)), want)
		}
	}
}

func TestDeleteVertexErrors(t *testing.T) {
	m := NewMaintainer(paperex.New())
	if err := m.DeleteVertex(-1); err == nil {
		t.Error("negative id must fail")
	}
	if err := m.DeleteVertex(999); err == nil {
		t.Error("out-of-range id must fail")
	}
}

// TestLazyVertexOpsMatchLocal drives vertex-level churn through both
// maintainers and compares top-k results.
func TestLazyVertexOpsMatchLocal(t *testing.T) {
	g := gen.Random(77, 25)
	k := 4
	m := NewMaintainer(g)
	lt := NewLazyTopK(g, k)

	v1, err := m.InsertVertex([]int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := lt.InsertVertex([]int32{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("id mismatch: %d vs %d", v1, v2)
	}
	compareTopK(t, m, lt, k, "after insert vertex")

	if err := m.DeleteVertex(0); err != nil {
		t.Fatal(err)
	}
	if err := lt.DeleteVertex(0); err != nil {
		t.Fatal(err)
	}
	compareTopK(t, m, lt, k, "after delete vertex")
}

func compareTopK(t *testing.T, m *Maintainer, lt *LazyTopK, k int, stage string) {
	t.Helper()
	want := m.TopK(k)
	got := lt.Results()
	if len(want) != len(got) {
		t.Fatalf("%s: sizes %d vs %d", stage, len(got), len(want))
	}
	for i := range want {
		if want[i].CB != got[i].CB {
			t.Fatalf("%s: rank %d: lazy %v local %v", stage, i, got[i].CB, want[i].CB)
		}
	}
}
