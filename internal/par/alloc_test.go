//go:build !race

package par

import "testing"

// TestForOneWorkerZeroAlloc: one worker runs the loop inline, so For
// allocates nothing beyond what its body does. The file is excluded under
// -race because the race runtime instruments allocations.
func TestForOneWorkerZeroAlloc(t *testing.T) {
	sum := 0
	body := func(_, i int) { sum += i }
	if allocs := testing.AllocsPerRun(100, func() { For(1, 1000, body) }); allocs != 0 {
		t.Errorf("%v allocs per one-worker For, want 0", allocs)
	}
	if want := 101 * (1000 * 999 / 2); sum != want {
		t.Fatalf("bodies summed %d, want %d: a call did not run every index", sum, want)
	}
}
