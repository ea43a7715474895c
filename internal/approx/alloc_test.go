//go:build !race

package approx

import (
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSamplingRoundZeroAlloc pins the sampling loop's cost contract: a
// candidate's first round seeds its stream and copies its tables off the
// kernel's ego CSR, and every round after that — 64 priced draws and two
// re-certifications — allocates nothing. The file is excluded under -race
// because the race runtime instruments allocations.
func TestSamplingRoundZeroAlloc(t *testing.T) {
	g := gen.ChungLu(6000, 2.2, 5.3, 500, 11)
	hub := graph.OrderOf(g)[0]
	d := int(g.Degree(hub))
	// ε = 0.02 puts the budget at ~4.6k draws: under the hub's ~92k pairs,
	// and priced under its ~86k-step counting pass, so the cost rule keeps
	// it sampling; and far beyond the rounds below, so it stays in the race.
	e := newEstimator(g, Options{Eps: 0.02, Seed: 1}.withDefaults())
	c := &cand{v: hub, d: d, ub: ego.StaticUB(int32(d)), high: ego.StaticUB(int32(d))}
	s := ego.NewScratch(g.NumVertices())
	e.round(c, s)
	if c.state != candAlive || c.off == nil {
		t.Fatalf("first round left state %d, tables copied = %v", c.state, c.off != nil)
	}
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, func() { e.round(c, s) }); allocs != 0 {
		t.Errorf("%v allocs per warmed sampling round, want 0", allocs)
	}
	if c.state != candAlive {
		t.Fatalf("candidate left the race (state %d) inside the measured rounds", c.state)
	}
	// AllocsPerRun makes one warm-up call beyond runs; every call sampled.
	if want := int64(sampleBatch + (runs+1)*roundBatches*sampleBatch); c.t != want {
		t.Fatalf("%d draws after the measured rounds, want %d: a round did not sample", c.t, want)
	}
}
