package nbr

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// markedPair marks a and b into two registers sized for span and hands them
// to fn.
func markedPair(span int32, a, b []int32, fn func(ra, rb *Register)) {
	ra, rb := NewRegister(span), NewRegister(span)
	ra.Mark(a)
	rb.Mark(b)
	fn(ra, rb)
}

// spanOf returns 1 + the largest element of the lists (at least 1).
func spanOf(lists ...[]int32) int32 {
	span := int32(1)
	for _, l := range lists {
		for _, v := range l {
			if v >= span {
				span = v + 1
			}
		}
	}
	return span
}

// TestAndAgainstReference pins the word-parallel kernel against the naive
// reference and the scalar kernels on the adversarial shapes of the
// satellite checklist: dense runs, hits at word and summary-block
// boundaries, empty sides, and hub×hub lists.
func TestAndAgainstReference(t *testing.T) {
	run := func(lo, n int32) []int32 {
		out := make([]int32, 0, n)
		for i := int32(0); i < n; i++ {
			out = append(out, lo+i)
		}
		return out
	}
	rng := rand.New(rand.NewPCG(11, 17))
	hubA := sortedList(rng, 3000, 1<<18)
	hubB := sortedList(rng, 3000, 1<<18)

	cases := []struct {
		name string
		a, b []int32
	}{
		{"both empty", nil, nil},
		{"left empty", nil, []int32{0, 63, 64, 127}},
		{"right empty", []int32{0, 63, 64, 127}, nil},
		{"single common at zero", []int32{0}, []int32{0}},
		{"word boundary hits", []int32{63, 64, 127, 128, 191}, []int32{63, 64, 128, 192}},
		{"summary block boundary", []int32{4095, 4096, 8191, 8192}, []int32{4096, 8191, 12288}},
		{"dense run vs dense run", run(100, 500), run(400, 500)},
		{"dense run vs sparse", run(0, 4096), []int32{1, 64, 4095, 4097, 100000}},
		{"far apart blocks", []int32{5, 70000}, []int32{5, 70000, 70001}},
		{"disjoint blocks", run(0, 64), run(64, 64)},
		{"identical hubs", hubA, hubA},
		{"random hub x hub", hubA, hubB},
		{"last id only", []int32{1<<18 - 1}, []int32{0, 1<<18 - 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := naiveIntersect(tc.a, tc.b)
			span := spanOf(tc.a, tc.b)
			markedPair(span, tc.a, tc.b, func(ra, rb *Register) {
				// Counts, commutes, and agrees with every scalar kernel.
				if c := ra.AndCount(rb); c != len(want) {
					t.Errorf("AndCount = %d, want %d", c, len(want))
				}
				if c := rb.AndCount(ra); c != len(want) {
					t.Errorf("AndCount not symmetric: %d, want %d", c, len(want))
				}
				if sc := ra.IntersectInto(nil, tc.b); !slices.Equal(sc, want) && (len(sc) != 0 || len(want) != 0) {
					t.Errorf("scalar probe %v, want %v", sc, want)
				}
				if lin := linearInto(nil, tc.a, tc.b); !slices.Equal(lin, want) && (len(lin) != 0 || len(want) != 0) {
					t.Errorf("linear %v, want %v", lin, want)
				}
			})
		})
	}
}

// TestAndRandomized drives the word kernel over random size mixes,
// including skews where the registers' spans differ wildly, and reuses two
// registers across Unmark so every cycle starts from cleared words.
func TestAndRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	sizes := []int{0, 1, 7, 63, 64, 65, 300, 4000}
	ra, rb := NewRegister(1), NewRegister(1)
	for _, la := range sizes {
		for _, lb := range sizes {
			for trial := 0; trial < 3; trial++ {
				spanA := int32(max(4*la, 64))
				spanB := int32(max(4*lb, 64))
				if trial == 2 {
					spanB = 1 << 19 // wildly different spans
				}
				a := sortedList(rng, la, spanA)
				b := sortedList(rng, lb, spanB)
				ra.Ensure(spanA)
				rb.Ensure(spanB)
				ra.Mark(a)
				rb.Mark(b)
				want := naiveIntersect(a, b)
				if c := ra.AndCount(rb); c != len(want) {
					t.Fatalf("la=%d lb=%d trial=%d: AndCount = %d, want %d", la, lb, trial, c, len(want))
				}
				if c := rb.AndCount(ra); c != len(want) {
					t.Fatalf("la=%d lb=%d trial=%d: AndCount = %d, want %d", la, lb, trial, c, len(want))
				}
				ra.Unmark()
				rb.Unmark()
			}
		}
	}
}

// TestAndStaleEpochIsolation checks that bits marked before an Unmark
// never leak into a later intersection: words re-used across Unmark must
// read as empty until re-marked.
func TestAndStaleEpochIsolation(t *testing.T) {
	ra := NewRegister(1 << 16)
	rb := NewRegister(1 << 16)
	ra.Mark([]int32{1, 64, 4096, 50000})
	rb.Mark([]int32{1, 64, 4096, 50000})
	if got := ra.AndCount(rb); got != 4 {
		t.Fatalf("AndCount before Unmark = %d, want 4", got)
	}
	ra.Unmark()
	if got := ra.AndCount(rb); got != 0 {
		t.Fatalf("AndCount after one-sided Unmark = %d, want 0", got)
	}
	ra.Mark([]int32{64, 200})
	if got := ra.AndCount(rb); got != 1 || !marked(ra, 64) {
		t.Fatalf("AndCount after re-mark = %d, want 1 (vertex 64)", got)
	}
	if marked(ra, 50000) {
		t.Fatal("stale vertex still marked after Unmark")
	}
}

// FuzzAnd cross-checks the word-parallel kernel against the naive reference
// on arbitrary byte-derived sorted lists, cycling registers through an
// extra mark/Unmark so clearing the marked words is always in play.
func FuzzAnd(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{}, []byte{0, 0, 255})
	f.Add([]byte{63, 1, 255, 255}, []byte{63, 1, 1})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := bytesToSorted(ab)
		b := bytesToSorted(bb)
		want := naiveIntersect(a, b)
		span := spanOf(a, b)
		ra := NewRegister(span)
		rb := NewRegister(span)
		// Dirty both registers with the other list, then recycle: the
		// fuzzed intersection must see none of the stale bits.
		ra.Mark(b)
		rb.Mark(a)
		ra.Unmark()
		rb.Unmark()
		ra.Mark(a)
		rb.Mark(b)
		if c := ra.AndCount(rb); c != len(want) {
			t.Fatalf("AndCount(%v,%v) = %d, want %d", a, b, c, len(want))
		}
	})
}

// denseHubPair is the hub×hub micro-benchmark shape: two degree-4096
// neighborhoods over a 32Ki-id universe sharing a small common core — the
// regime the word-parallel kernel targets (dense hubs whose ids compress
// into a low prefix after degree-ordered relabeling, intersecting in a
// sparse common set).
func denseHubPair() ([]int32, []int32) {
	rng := rand.New(rand.NewPCG(101, 103))
	shared := sortedList(rng, 256, 1<<15)
	a := naiveUnion(shared, sortedList(rng, 3840, 1<<15))
	b := naiveUnion(shared, sortedList(rng, 3840, 1<<15))
	return a, b
}

func naiveUnion(a, b []int32) []int32 {
	set := make(map[int32]bool, len(a)+len(b))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		set[v] = true
	}
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// BenchmarkHubHubScalarProbe is the pre-word baseline: one side marked, the
// other probed element-by-element.
func BenchmarkHubHubScalarProbe(b *testing.B) {
	la, lb := denseHubPair()
	r := NewRegister(1 << 16)
	r.Mark(la)
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.IntersectInto(dst[:0], lb)
	}
	_ = dst
}

// BenchmarkHubHubWordAnd is the word-parallel path on the same inputs.
func BenchmarkHubHubWordAnd(b *testing.B) {
	la, lb := denseHubPair()
	ra := NewRegister(1 << 16)
	rb := NewRegister(1 << 16)
	ra.Mark(la)
	rb.Mark(lb)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n += ra.AndCount(rb)
	}
	_ = n
}
