package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJaccard(t *testing.T) {
	cases := []struct {
		a, b []int32
		want float64
	}{
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 1},
		{[]int32{1, 2}, []int32{3, 4}, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 0.5},
		{nil, nil, 1},
		{[]int32{1, 1, 2}, []int32{1, 2, 2}, 1}, // duplicates collapse
	}
	for i, c := range cases {
		if got := Jaccard(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	rho, err := SpearmanRho(x, y)
	if err != nil || math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho = %v, err = %v, want 1", rho, err)
	}
	rev := []float64{50, 40, 30, 20, 10}
	rho, err = SpearmanRho(x, rev)
	if err != nil || math.Abs(rho+1) > 1e-12 {
		t.Fatalf("rho = %v, err = %v, want -1", rho, err)
	}
}

func TestSpearmanTies(t *testing.T) {
	// x has a tie; known value computed with fractional ranks by hand:
	// x ranks: (1.5, 1.5, 3, 4); y ranks: (1, 2, 3, 4).
	x := []float64{5, 5, 7, 9}
	y := []float64{1, 2, 3, 4}
	rho, err := SpearmanRho(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Pearson of (1.5,1.5,3,4) vs (1,2,3,4) = 0.9486832980505138.
	if math.Abs(rho-0.9486832980505138) > 1e-9 {
		t.Fatalf("rho = %v", rho)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := SpearmanRho([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := SpearmanRho([]float64{1}, []float64{2}); err == nil {
		t.Error("n<2 must error")
	}
	if _, err := SpearmanRho([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("constant ranking must error")
	}
}

// TestQuickSpearmanBounds: for arbitrary non-degenerate vectors, rho must
// land in [-1, 1], and rho(x, x) = 1.
func TestQuickSpearmanBounds(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 3 {
			return true
		}
		x := make([]float64, len(raw))
		varies := false
		for i, v := range raw {
			x[i] = float64(v)
			if v != raw[0] {
				varies = true
			}
		}
		if !varies {
			return true
		}
		self, err := SpearmanRho(x, x)
		if err != nil || math.Abs(self-1) > 1e-9 {
			return false
		}
		y := make([]float64, len(x))
		for i := range y {
			y[i] = x[(i+1)%len(x)]
		}
		rho, err := SpearmanRho(x, y)
		if err != nil {
			// y may be constant only if x was; excluded above — but a
			// rotation of non-constant x stays non-constant.
			return false
		}
		return rho >= -1-1e-9 && rho <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
