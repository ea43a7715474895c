package nbr

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// naiveIntersect is the obviously-correct reference: map membership.
func naiveIntersect(a, b []int32) []int32 {
	set := make(map[int32]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	var out []int32
	for _, y := range b {
		if set[y] {
			out = append(out, y)
		}
	}
	slices.Sort(out)
	return out
}

// sortedList derives a strictly ascending list of up to n elements drawn
// from [0, span).
func sortedList(rng *rand.Rand, n int, span int32) []int32 {
	set := make(map[int32]bool, n)
	for len(set) < n {
		set[rng.Int32N(span)] = true
	}
	out := make([]int32, 0, n)
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// allStrategies runs every kernel on the same inputs and hands each result
// to check. The register is marked with a, probed with b — the shape hub
// callers use.
func allStrategies(t *testing.T, a, b []int32, check func(name string, got []int32)) {
	t.Helper()
	check("linearInto", linearInto(nil, a, b))
	check("gallopInto(a into b)", func() []int32 {
		small, large := a, b
		if len(small) > len(large) {
			small, large = large, small
		}
		return gallopInto(nil, small, large)
	}())
	check("IntersectInto", IntersectInto(nil, a, b))
	span := int32(1)
	for _, v := range append(append([]int32(nil), a...), b...) {
		if v >= span {
			span = v + 1
		}
	}
	reg := AcquireRegister(span)
	reg.Mark(a)
	check("Register.IntersectInto", reg.IntersectInto(nil, b))
	ReleaseRegister(reg)

	if got, want := IntersectCount(a, b), len(naiveIntersect(a, b)); got != want {
		t.Errorf("IntersectCount = %d, want %d", got, want)
	}
	if got, want := linearCount(a, b), len(naiveIntersect(a, b)); got != want {
		t.Errorf("linearCount = %d, want %d", got, want)
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	if len(small) > 0 {
		if got, want := gallopCount(small, large), len(naiveIntersect(a, b)); got != want {
			t.Errorf("gallopCount = %d, want %d", got, want)
		}
	}
}

func expectEqual(t *testing.T, want []int32) func(string, []int32) {
	return func(name string, got []int32) {
		t.Helper()
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestEdgeCases pins the named boundary shapes of the satellite checklist:
// empty, disjoint, identical, and 1-vs-10k skew.
func TestEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	big := sortedList(rng, 10000, 1<<20)

	cases := []struct {
		name string
		a, b []int32
	}{
		{"both empty", nil, nil},
		{"left empty", nil, []int32{1, 2, 3}},
		{"right empty", []int32{1, 2, 3}, nil},
		{"disjoint", []int32{0, 2, 4, 6}, []int32{1, 3, 5, 7}},
		{"identical", []int32{3, 9, 27, 81}, []int32{3, 9, 27, 81}},
		{"single hit in 10k", []int32{big[5000]}, big},
		{"single miss in 10k", []int32{1<<20 + 1}, big},
		{"prefix overlap", []int32{0, 1, 2}, []int32{0, 1, 2, 3, 4, 5}},
		{"suffix overlap", []int32{4, 5}, []int32{0, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := naiveIntersect(tc.a, tc.b)
			allStrategies(t, tc.a, tc.b, expectEqual(t, want))
			// Symmetry: intersection is commutative.
			allStrategies(t, tc.b, tc.a, expectEqual(t, want))
		})
	}
}

// TestRandomizedAgainstReference drives all strategies over random sorted
// lists of many size mixes, including the skews that flip the adaptive
// dispatch between linear and galloping.
func TestRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	sizes := []int{0, 1, 2, 7, 40, 300, 5000}
	for _, la := range sizes {
		for _, lb := range sizes {
			for trial := 0; trial < 3; trial++ {
				span := int32(la + lb + 10)
				if trial == 1 {
					span *= 8 // sparser overlap
				}
				a := sortedList(rng, la, span)
				b := sortedList(rng, lb, span)
				want := naiveIntersect(a, b)
				allStrategies(t, a, b, expectEqual(t, want))
			}
		}
	}
}

// TestChoose pins the dispatch thresholds.
func TestChoose(t *testing.T) {
	if got := Choose(100, 100); got != StrategyLinear {
		t.Errorf("Choose(100,100) = %v, want linear", got)
	}
	if got := Choose(4, 4*GallopRatio); got != StrategyGallop {
		t.Errorf("Choose(4,%d) = %v, want gallop", 4*GallopRatio, got)
	}
	if got := Choose(4*GallopRatio, 4); got != StrategyGallop {
		t.Errorf("Choose is not symmetric: got %v", got)
	}
	if got := Choose(4, 4*GallopRatio-1); got != StrategyLinear {
		t.Errorf("Choose just under ratio = %v, want linear", got)
	}
	if got := Choose(0, 1000); got != StrategyLinear {
		t.Errorf("Choose(0,1000) = %v, want linear (empty short-circuits)", got)
	}
}

// TestRegisterReuse exercises mark/unmark cycles through the pool, which is
// exactly the per-center amortization pattern of the maintainers' hub scans.
func TestRegisterReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	reg := AcquireRegister(1 << 16)
	defer ReleaseRegister(reg)
	for round := 0; round < 50; round++ {
		center := sortedList(rng, 1+rng.IntN(200), 1<<16)
		reg.Mark(center)
		for scan := 0; scan < 4; scan++ {
			other := sortedList(rng, rng.IntN(100), 1<<16)
			got := reg.IntersectInto(nil, other)
			want := naiveIntersect(center, other)
			if len(got) != 0 || len(want) != 0 {
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: register got %v, want %v", round, got, want)
				}
			}
		}
		reg.Unmark()
		// After Unmark nothing may remain marked.
		for _, v := range center {
			if reg.Contains(v) {
				t.Fatalf("round %d: %d still marked after Unmark", round, v)
			}
		}
	}
}

// TestIntersectIntoAppends verifies the dst-append contract (the kernels
// extend, never clobber, the destination).
func TestIntersectIntoAppends(t *testing.T) {
	dst := []int32{-7}
	got := IntersectInto(dst, []int32{1, 2, 3}, []int32{2, 3, 4})
	if !slices.Equal(got, []int32{-7, 2, 3}) {
		t.Errorf("IntersectInto append = %v, want [-7 2 3]", got)
	}
}

// FuzzIntersect cross-checks the adaptive kernels against the naive
// reference on arbitrary byte-derived sorted lists.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0, 0, 255})
	f.Add([]byte{9}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := bytesToSorted(ab)
		b := bytesToSorted(bb)
		want := naiveIntersect(a, b)
		got := IntersectInto(nil, a, b)
		if len(got) != 0 || len(want) != 0 {
			if !slices.Equal(got, want) {
				t.Fatalf("IntersectInto(%v,%v) = %v, want %v", a, b, got, want)
			}
		}
		if c := IntersectCount(a, b); c != len(want) {
			t.Fatalf("IntersectCount(%v,%v) = %d, want %d", a, b, c, len(want))
		}
	})
}

// bytesToSorted turns fuzz bytes into a strictly ascending list by
// cumulative gaps, so any input is a valid sorted neighbor list.
func bytesToSorted(bs []byte) []int32 {
	out := make([]int32, 0, len(bs))
	cur := int32(-1)
	for _, b := range bs {
		cur += int32(b%16) + 1
		out = append(out, cur)
	}
	return out
}
