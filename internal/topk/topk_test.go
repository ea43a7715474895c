package topk

import (
	"math/rand/v2"
	"sort"
	"testing"
)

func TestBoundedBasics(t *testing.T) {
	b := NewBounded(3)
	if b.Full() {
		t.Fatal("empty is not full")
	}
	if _, ok := b.Worst(); ok {
		t.Fatal("Worst defined before full")
	}
	b.Add(1, 10)
	b.Add(2, 5)
	b.Add(3, 7)
	if !b.Full() {
		t.Fatal("should be full")
	}
	if w, _ := b.Worst(); w != (Item{V: 2, Score: 5}) {
		t.Fatalf("worst = %v, want vertex 2 at 5", w)
	}
	b.Add(4, 6) // evicts 5
	if w, _ := b.Worst(); w != (Item{V: 4, Score: 6}) {
		t.Fatalf("worst = %v, want vertex 4 at 6", w)
	}
	b.Add(5, 1) // too small, ignored
	res := b.Results()
	want := []Item{{V: 1, Score: 10}, {V: 3, Score: 7}, {V: 4, Score: 6}}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("results = %v, want %v", res, want)
		}
	}
}

// TestBoundedTieKeepsIncumbent: a score tie is decided by the label, so an
// incumbent survives a tied offer under a larger id and yields to one under
// a smaller id.
func TestBoundedTieKeepsIncumbent(t *testing.T) {
	b := NewBounded(1)
	b.Add(2, 5)
	b.Add(3, 5)
	if res := b.Results(); res[0].V != 2 {
		t.Fatalf("tie under a larger id evicted the incumbent: %v", res)
	}
	b.Add(1, 5)
	if res := b.Results(); res[0].V != 1 {
		t.Fatalf("tie under a smaller id did not displace the incumbent: %v", res)
	}
}

// TestBoundedRandomizedAgainstSort compares with sorting on random streams.
func TestBoundedRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.IntN(10)
		n := 1 + rng.IntN(200)
		b := NewBounded(k)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.IntN(50)) // ties likely
			b.Add(int32(i), scores[i])
		}
		sorted := append([]float64(nil), scores...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		want := sorted[:min(k, n)]
		got := b.Results()
		if len(got) != len(want) {
			t.Fatalf("k=%d n=%d: got %d results", k, n, len(got))
		}
		for i := range want {
			if got[i].Score != want[i] {
				t.Fatalf("k=%d n=%d rank %d: %v want %v", k, n, i, got[i].Score, want[i])
			}
		}
	}
}

func TestMaxHeapOrdering(t *testing.T) {
	h := NewMaxHeap(0)
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	for i, v := range vals {
		h.Push(int32(i), v)
	}
	if h.Peek().Score != 9 {
		t.Fatalf("peek = %v, want 9", h.Peek().Score)
	}
	prev := h.Pop()
	for h.Len() > 0 {
		cur := h.Pop()
		if cur.Score > prev.Score {
			t.Fatalf("heap order violated: %v after %v", cur.Score, prev.Score)
		}
		prev = cur
	}
}

func TestMaxHeapTieBreak(t *testing.T) {
	h := NewMaxHeap(0)
	h.Push(3, 7)
	h.Push(9, 7)
	h.Push(5, 7)
	if got := h.Pop().V; got != 9 {
		t.Fatalf("tie pop = %d, want 9 (larger id first)", got)
	}
	if got := h.Pop().V; got != 5 {
		t.Fatalf("tie pop = %d, want 5", got)
	}
}

func TestNewBoundedClampsK(t *testing.T) {
	b := NewBounded(0)
	b.Add(1, 1)
	if b.K() != 1 || !b.Full() {
		t.Fatal("k must clamp to 1")
	}
}
