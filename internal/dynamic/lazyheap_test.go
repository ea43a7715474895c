package dynamic

import (
	"math/rand/v2"
	"sort"
	"testing"
)

func newTestHeap(n int32) *lazyHeap {
	return &lazyHeap{ver: make([]int32, n)}
}

func TestLazyHeapPopOrder(t *testing.T) {
	h := newTestHeap(10)
	vals := []float64{3, 9, 1, 7, 5}
	for i, v := range vals {
		h.push(int32(i), v)
	}
	want := []float64{9, 7, 5, 3, 1}
	for _, w := range want {
		item, ok := h.pop()
		if !ok || item.score != w {
			t.Fatalf("pop = %v,%v want %v", item.score, ok, w)
		}
	}
	if _, ok := h.pop(); ok {
		t.Fatal("empty heap popped something")
	}
}

// TestLazyHeapVersioning: re-pushing a vertex invalidates its older entry.
func TestLazyHeapVersioning(t *testing.T) {
	h := newTestHeap(4)
	h.push(0, 100)
	h.push(1, 50)
	h.push(0, 10) // vertex 0 superseded: old 100-entry must be skipped
	item, ok := h.pop()
	if !ok || item.v != 1 || item.score != 50 {
		t.Fatalf("pop = %+v, want vertex 1 @ 50", item)
	}
	item, ok = h.pop()
	if !ok || item.v != 0 || item.score != 10 {
		t.Fatalf("pop = %+v, want vertex 0 @ 10", item)
	}
}

// TestLazyHeapReinsert: a popped item reinserted keeps its validity.
func TestLazyHeapReinsert(t *testing.T) {
	h := newTestHeap(3)
	h.push(0, 5)
	h.push(1, 3)
	item, _ := h.pop()
	h.reinsert(item)
	again, ok := h.pop()
	if !ok || again != item {
		t.Fatalf("reinserted item lost: %+v vs %+v", again, item)
	}
}

// TestLazyHeapTieOrder: equal scores pop the smaller vertex first — the
// result order, so rebalance resolves ties as every exact top-k path does.
func TestLazyHeapTieOrder(t *testing.T) {
	h := newTestHeap(5)
	h.push(2, 7)
	h.push(4, 7)
	h.push(1, 7)
	var order []int32
	for {
		item, ok := h.pop()
		if !ok {
			break
		}
		order = append(order, item.v)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 4 {
		t.Fatalf("tie order = %v, want [1 2 4]", order)
	}
}

// TestLazyHeapRandomizedAgainstSort: interleaved pushes and pops must
// respect a reference model (latest value per vertex, max-first, ties by
// ascending vertex).
func TestLazyHeapRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	const n = 50
	h := newTestHeap(n)
	latest := map[int32]float64{}
	for i := 0; i < 500; i++ {
		v := rng.Int32N(n)
		score := float64(rng.IntN(1000))
		h.push(v, score)
		latest[v] = score
	}
	type kv struct {
		v int32
		s float64
	}
	var want []kv
	for v, s := range latest {
		want = append(want, kv{v, s})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].s != want[j].s {
			return want[i].s > want[j].s
		}
		return want[i].v < want[j].v
	})
	for _, w := range want {
		item, ok := h.pop()
		if !ok || item.v != w.v || item.score != w.s {
			t.Fatalf("pop = %+v, want %+v", item, w)
		}
	}
	if _, ok := h.pop(); ok {
		t.Fatal("heap should be drained")
	}
}
