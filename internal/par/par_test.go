package par

import (
	"sync/atomic"
	"testing"
)

// TestForRunsEachIndexOnce: every i in [0, n) runs exactly once, on a worker
// w below min(workers, n), and one worker runs them in ascending order.
func TestForRunsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 4, 7} {
			runs := make([]atomic.Int32, n)
			lastW := max(min(workers, n), 1) - 1
			var order []int
			For(workers, n, func(w, i int) {
				if w < 0 || w > lastW {
					t.Errorf("n=%d workers=%d: index %d ran on worker %d", n, workers, i, w)
				}
				runs[i].Add(1)
				if workers <= 1 {
					order = append(order, i)
				}
			})
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			for i, x := range order {
				if x != i {
					t.Fatalf("n=%d workers=%d: one worker ran index %d %d-th", n, workers, x, i)
				}
			}
		}
	}
}

// TestForPerWorkerState: state indexed by w needs no lock, because a
// worker runs its calls one after another.
func TestForPerWorkerState(t *testing.T) {
	const n, workers = 10000, 4
	sum := make([]int, workers)
	For(workers, n, func(w, i int) { sum[w] += i })
	total := 0
	for _, s := range sum {
		total += s
	}
	if want := n * (n - 1) / 2; total != want {
		t.Fatalf("per-worker sums total %d, want %d", total, want)
	}
}
