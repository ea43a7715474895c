package nbr

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// markedPair marks a and b into two pooled registers sized for span and
// hands them to fn, releasing them afterwards.
func markedPair(span int32, a, b []int32, fn func(ra, rb *Register)) {
	ra := AcquireRegister(span)
	rb := AcquireRegister(span)
	ra.Mark(a)
	rb.Mark(b)
	fn(ra, rb)
	ReleaseRegister(ra)
	ReleaseRegister(rb)
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
// including skews where the registers' spans differ wildly, and re-marks
// through epochs so the O(1) Unmark path is covered.
func TestAndRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	sizes := []int{0, 1, 7, 63, 64, 65, 300, 4000}
	ra := AcquireRegister(1)
	rb := AcquireRegister(1)
	defer ReleaseRegister(ra)
	defer ReleaseRegister(rb)
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

// TestAndStaleEpochIsolation checks that bits marked in an earlier epoch
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
	if got := ra.AndCount(rb); got != 1 || !ra.Contains(64) {
		t.Fatalf("AndCount after re-mark = %d, want 1 (vertex 64)", got)
	}
	if ra.Contains(50000) {
		t.Fatal("stale vertex still Contains after Unmark")
	}
}

// TestChooseHub pins the central hub dispatch table.
func TestChooseHub(t *testing.T) {
	cases := []struct {
		la, lb int
		want   Strategy
	}{
		{HubDegree, HubDegree, StrategyBitset},
		{HubDegree + 100, HubDegree, StrategyBitset},
		{HubDegree, 0, StrategyBitset},
		{0, HubDegree, StrategyBitset},
		{HubDegree - 1, HubDegree * 2, StrategyBitset},
		{HubDegree - 1, HubDegree - 1, StrategyLinear},
		{2, 2 * GallopRatio, StrategyGallop},
		{0, 0, StrategyLinear},
	}
	for _, tc := range cases {
		if got := ChooseHub(tc.la, tc.lb); got != tc.want {
			t.Errorf("ChooseHub(%d,%d) = %v, want %v", tc.la, tc.lb, got, tc.want)
		}
	}
	if StrategyBitset.String() != "bitset" {
		t.Errorf("StrategyBitset.String() = %q", StrategyBitset.String())
	}
}

// FuzzAnd cross-checks the word-parallel kernel against the naive reference
// on arbitrary byte-derived sorted lists, cycling registers through an
// extra epoch so stale-word re-zeroing is always in play.
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

// legacyRegister is the pre-epoch implementation kept as the benchmark
// baseline: Unmark walks the remembered marked list and clears bit by bit.
type legacyRegister struct {
	words  []uint64
	marked []int32
}

func (r *legacyRegister) mark(vs []int32) {
	for _, v := range vs {
		r.words[uint32(v)>>6] |= 1 << (uint32(v) & 63)
	}
	r.marked = append(r.marked, vs...)
}

func (r *legacyRegister) unmark() {
	for _, v := range r.marked {
		r.words[uint32(v)>>6] &^= 1 << (uint32(v) & 63)
	}
	r.marked = r.marked[:0]
}

func (r *legacyRegister) count(list []int32) int {
	n := 0
	for _, v := range list {
		if r.words[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0 {
			n++
		}
	}
	return n
}

// benchMarkSet is the mark → unmark recycle cycle both register designs
// run between kernel invocations; the sizes pin the satellite requirement
// that the epoch design does not regress the small-marks case (maintainer
// L-sets, leaf centers) while making hub-sized Unmark O(1).
func benchMarkSet(n int) []int32 {
	rng := rand.New(rand.NewPCG(77, uint64(n)))
	return sortedList(rng, n, 1<<16)
}

func BenchmarkMarkUnmarkEpoch(b *testing.B) {
	for _, n := range []int{8, 64, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			vs := benchMarkSet(n)
			r := NewRegister(1 << 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Mark(vs)
				r.Unmark()
			}
		})
	}
}

func BenchmarkMarkUnmarkLegacy(b *testing.B) {
	for _, n := range []int{8, 64, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			vs := benchMarkSet(n)
			r := &legacyRegister{words: make([]uint64, 1<<10)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.mark(vs)
				r.unmark()
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "marks=8"
	case 64:
		return "marks=64"
	default:
		return "marks=1024"
	}
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
