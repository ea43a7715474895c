// Package par is the one place that spreads a loop over cores. Every
// parallel loop in the module — the all-vertices sweep, the approx rounds,
// Brandes' sources, the CSR row copy and the state import — claims its
// units through For.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs body(w, i) once for every i in [0, n) on min(workers, n)
// workers, at least one. The workers claim each i in ascending order
// through one atomic cursor; w in [0, min(workers, n)) names the worker
// that runs the call, so a body keeps per-worker state in a slice indexed
// by w. Worker 0 is the caller's goroutine, and a single worker runs the
// loop inline, starting no goroutine and allocating nothing. For returns
// once every call has.
func For(workers, n int, body func(w, i int)) {
	workers = max(min(workers, n), 1)
	if workers == 1 {
		for i := range n {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	claim := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			body(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim(w)
		}()
	}
	claim(0)
	wg.Wait()
}
