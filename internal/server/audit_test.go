package server

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// addAuditGraph serves base as graph "g" with the compaction policy off, so
// compactNow alone decides when the compactor (and so the audit) runs.
func addAuditGraph(t *testing.T, base *graph.Graph, mode string) (*Registry, *entry) {
	t.Helper()
	reg := addOverlayGraph(t, base, mode, 0, math.MaxInt)
	t.Cleanup(func() { reg.Close() })
	e, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	return reg, e
}

// compactNow runs the compactor over the published overlay on the calling
// goroutine, as maybeCompactLocked would hand it to one of its own.
func compactNow(t *testing.T, e *entry) {
	t.Helper()
	s := e.snap.Load()
	if s.overlay() == nil {
		t.Fatal("nothing to compact: the published view is a full CSR")
	}
	if e.compacting.Swap(true) {
		t.Fatal("a compaction is already in flight")
	}
	e.compact(s)
}

// TestAuditReportsFlippedScore: a published score one ulp off the kernel's —
// a hub's or an ordinary vertex's, in either mode — is reported within
// auditLapBound compactions, the lap bound of the audit's 2m budget, even
// when the audit starts just past it; the report names the vertex and both
// bit patterns. Each compaction flattens a drain that toggles an edge
// outside the vertex's ego, so its score stays flipped in every later
// publication.
func TestAuditReportsFlippedScore(t *testing.T) {
	base := gen.ChungLu(600, 2.2, 5.3, 60, 3)
	hub, plain := int32(0), int32(-1) // the largest degree; a small one that scores
	for v := int32(0); v < base.NumVertices(); v++ {
		d := base.Degree(v)
		if d > base.Degree(hub) {
			hub = v
		}
		if plain < 0 && d >= 3 && d <= 8 && ego.EgoBetweenness(base, v, nil) > 0 {
			plain = v
		}
	}
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for _, v := range []int32{hub, plain} {
			t.Run(fmt.Sprintf("%s/v%d_d%d", mode, v, base.Degree(v)), func(t *testing.T) {
				reg, e := addAuditGraph(t, base, mode)
				logs := captureLog(t)
				toggle := edgeOutsideEgo(t, base, v)
				bound := auditLapBound(t, base, toggle)

				e.mu.Lock()
				all := e.m.All()
				want := all[v]
				all[v] = math.Nextafter(want, math.Inf(1))
				cur := e.snap.Load()
				e.snap.Store(&snapshot{epoch: cur.epoch, view: cur.view, scores: newScoreVec(all, e.m.Stale())})
				e.auditNext = v + 1
				e.mu.Unlock()

				for round := 1; ; round++ {
					if _, err := reg.applyEdges("g", [][2]int32{toggle}, round%2 == 0); err != nil {
						t.Fatal(err)
					}
					compactNow(t, e)
					info, err := reg.Info("g")
					if err != nil {
						t.Fatal(err)
					}
					if info.AuditMismatches == 0 {
						if round == bound {
							t.Fatalf("no mismatch after %d compactions (%d scores audited)", round, info.Audited)
						}
						continue
					}
					if round == 1 {
						t.Fatalf("one compaction audited a whole lap (%d scores): the budget did not bind", info.Audited)
					}
					if info.AuditMismatches != 1 {
						t.Fatalf("%d mismatches, want the one flipped score", info.AuditMismatches)
					}
					for _, part := range []string{
						fmt.Sprintf("vertex %d ", v),
						fmt.Sprintf("published %#016x", math.Float64bits(all[v])),
						fmt.Sprintf("kernel %#016x", math.Float64bits(want)),
					} {
						if !strings.Contains(info.AuditFirstMismatch, part) {
							t.Fatalf("first mismatch %q does not name %q", info.AuditFirstMismatch, part)
						}
					}
					var epoch uint64
					if _, err := fmt.Sscanf(info.AuditFirstMismatch, "vertex %d at epoch %d:", new(int32), &epoch); err != nil {
						t.Fatalf("first mismatch %q names no epoch: %v", info.AuditFirstMismatch, err)
					}
					requireLine(t, logs, "audit mismatch", "graph=g ", fmt.Sprintf("vertex=%d epoch=%d published=%#016x kernel=%#016x",
						v, epoch, math.Float64bits(all[v]), math.Float64bits(want)))
					t.Logf("reported in compaction %d of at most %d", round, bound)
					return
				}
			})
		}
	}
}

// auditLapBound is the number of compactions within which the audit reaches
// every vertex wherever its cursor starts, when each compaction flattens g
// or g less toggle: ⌈Σ_v c(v) / 2m'⌉+1, with c(v) the larger of v's audit
// charges on the two graphs — its ego build's scan Σ_{u∈N(v)} d(u) plus
// ego.Scratch.Price — and 2m' the smaller graph's budget.
func auditLapBound(t *testing.T, g *graph.Graph, toggle [2]int32) int {
	t.Helper()
	d := graph.DynFromGraph(g)
	if err := d.DeleteEdge(toggle[0], toggle[1]); err != nil {
		t.Fatal(err)
	}
	cut := d.Freeze(1)
	s := ego.NewScratch(g.NumVertices())
	charge := func(g *graph.Graph, v int32) int64 {
		nu, off, adj := s.EgoCSR(g, v)
		c := s.Price(off, adj)
		for _, u := range nu {
			c += int64(g.Degree(u))
		}
		return c
	}
	var lap int64
	for v := range g.NumVertices() {
		lap += max(charge(g, v), charge(cut, v))
	}
	budget := 2 * cut.NumEdges()
	return int((lap+budget-1)/budget) + 1
}

// edgeOutsideEgo returns an edge of g whose insertion or deletion leaves
// v's score alone: v is neither endpoint nor adjacent to both.
func edgeOutsideEgo(t *testing.T, g *graph.Graph, v int32) [2]int32 {
	t.Helper()
	for a := int32(0); a < g.NumVertices(); a++ {
		for _, b := range g.Neighbors(a) {
			if a < b && a != v && b != v && !(slices.Contains(g.Neighbors(v), a) && slices.Contains(g.Neighbors(v), b)) {
				return [2]int32{a, b}
			}
		}
	}
	t.Fatal("no edge outside the ego")
	return [2]int32{}
}

// TestAuditCleanStreamNoMismatches: under a random insert/delete stream,
// growth included, with a compaction after every drain, the audit recomputes
// fresh scores in both modes and finds every one equal to the kernel's bits
// — in ModeLazy it skips the stale bounds the stream leaves.
func TestAuditCleanStreamNoMismatches(t *testing.T) {
	for _, mode := range []string{ModeLocal, ModeLazy} {
		t.Run(mode, func(t *testing.T) {
			base := gen.BarabasiAlbert(300, 3, 17)
			reg, e := addAuditGraph(t, base, mode)
			rng := rand.New(rand.NewPCG(17, 0xA0D1))
			for _, sb := range makeScript(rng, graph.DynFromGraph(base), 40) {
				if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
					t.Fatal(err)
				}
				if e.snap.Load().overlay() != nil {
					compactNow(t, e)
				}
			}
			info, err := reg.Info("g")
			if err != nil {
				t.Fatal(err)
			}
			if info.Compactions < 20 || info.Audited < info.Compactions || info.AuditMismatches != 0 || info.AuditFirstMismatch != "" {
				t.Fatalf("%d compactions audited %d scores: %d mismatches (%q)",
					info.Compactions, info.Audited, info.AuditMismatches, info.AuditFirstMismatch)
			}
			t.Logf("%d compactions audited %d scores", info.Compactions, info.Audited)
		})
	}
}
