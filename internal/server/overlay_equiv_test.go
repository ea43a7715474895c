package server

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// The overlay-vs-freeze equivalence property at the serving layer: after
// any stream of update batches, every algorithm's answer over the published
// view (usually an overlay chain) equals the same query over a from-scratch
// Freeze of the mirrored graph. Runs in both maintenance modes under -race
// (the Makefile's test target), which also exercises the background
// compactor racing the writer.

// addOverlayGraph serves base as "g" on a fresh registry with the
// dirty-ratio trigger disabled and the chain bounded at depth, so the tests
// control exactly when compaction happens.
func addOverlayGraph(t *testing.T, base *graph.Graph, mode string, lazyK, depth int) *Registry {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Add("g", base, mode, lazyK); err != nil {
		t.Fatal(err)
	}
	e, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	e.maxDepth, e.dirtyRatio = depth, 1e9 // absurd ratio: depth is the only trigger
	e.mu.Unlock()
	return reg
}

func TestOverlayServingEquivalence(t *testing.T) {
	const nBatches = 30
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for _, seed := range []uint64{3, 11} {
			t.Run(fmt.Sprintf("%s/seed%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 0x0E65))
				base := gen.BarabasiAlbert(80, 3, seed)
				mirror := graph.DynFromGraph(base)
				script := makeScript(rng, mirror, nBatches)

				// Deep depth bound: the chain grows across many drains, so
				// the queries genuinely run over multi-layer overlays.
				reg := addOverlayGraph(t, base, mode, 10, 64)
				for i, sb := range script {
					if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
						t.Fatal(err)
					}
					if i%5 != 4 {
						continue
					}
					want := stateAfter(base, script, i+1)
					info, err := reg.Info("g")
					if err != nil {
						t.Fatal(err)
					}
					if info.N != want.NumVertices() || info.M != want.NumEdges() {
						t.Fatalf("batch %d: served shape (n=%d,m=%d), want (n=%d,m=%d)",
							i, info.N, info.M, want.NumVertices(), want.NumEdges())
					}
					assertRecovered(t, reg, "g", mode, want)
				}
				// The chain must actually have been exercised.
				info, _ := reg.Info("g")
				if info.OverlayDepth == 0 {
					t.Fatal("no overlay was ever served — the test lost its subject")
				}
			})
		}
	}
}

// TestOverlayCompactionEquivalence drives drains with an aggressive depth
// bound so the background compactor keeps flattening underneath live
// queries, then checks answers and counters.
func TestOverlayCompactionEquivalence(t *testing.T) {
	const nBatches = 40
	rng := rand.New(rand.NewPCG(21, 0x0E65))
	base := gen.BarabasiAlbert(90, 3, 21)
	mirror := graph.DynFromGraph(base)
	script := makeScript(rng, mirror, nBatches)

	reg := addOverlayGraph(t, base, ModeLocal, 0, 2) // compact every other drain
	for _, sb := range script {
		if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
		// Read under the compactor: correctness must not depend on whether
		// the flatten has landed yet.
		if _, err := reg.topK("g", 5, AlgoOpt); err != nil {
			t.Fatal(err)
		}
	}
	assertRecovered(t, reg, "g", ModeLocal, stateAfter(base, script, nBatches))

	// The compactor ran: wait out the in-flight flatten, then verify the
	// counters and that the served chain respects the bound.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := reg.Info("g")
		if err != nil {
			t.Fatal(err)
		}
		if info.Compactions > 0 && info.OverlayDepth < 2 {
			if info.CompactMS <= 0 {
				t.Fatalf("compact_ms %v must be positive after %d compactions", info.CompactMS, info.Compactions)
			}
			if info.Audited == 0 || info.AuditMismatches != 0 {
				t.Fatalf("%d compactions audited %d scores with %d mismatches (%s)",
					info.Compactions, info.Audited, info.AuditMismatches, info.AuditFirstMismatch)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never caught up: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertRecovered(t, reg, "g", ModeLocal, stateAfter(base, script, nBatches))
}

// TestScoresCopyOnWrite pins the ModeLocal score-vector contract: a drain
// that changes no score copies nothing (the zero-change fast path), a drain
// that changes a few scores copies only their chunks, and the scores served
// through every read shape stay exact throughout.
func TestScoresCopyOnWrite(t *testing.T) {
	// > 1 chunk so partial copies are observable (n = 1500 → 2 chunks).
	base := gen.BarabasiAlbert(1500, 3, 7)
	reg := addOverlayGraph(t, base, ModeLocal, 0, 64)
	info, _ := reg.Info("g")
	if info.ScoresCopied != 0 {
		t.Fatalf("fresh graph scores_copied = %d, want 0", info.ScoresCopied)
	}

	// Zero-change drain: an edge between two brand-new isolated vertices
	// moves no score (both endpoints go from CB 0 to d(d−1)/2 = 0, and
	// they share no neighbors). The epoch must advance — the graph did
	// change — while the score vector is carried over untouched.
	n := info.N
	up, err := reg.applyEdges("g", [][2]int32{{n, n + 1}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if up.Applied != 1 {
		t.Fatalf("zero-change batch applied %d, want 1", up.Applied)
	}
	info2, _ := reg.Info("g")
	if info2.Epoch != info.Epoch+1 {
		t.Fatalf("epoch %d, want %d", info2.Epoch, info.Epoch+1)
	}
	if info2.ScoresCopied != 0 {
		t.Fatalf("zero-change drain copied %d score entries, want 0", info2.ScoresCopied)
	}
	if vr, err := reg.EgoBetweenness("g", n); err != nil || vr.CB != 0 {
		t.Fatalf("new vertex CB = %v (%v), want 0", vr.CB, err)
	}

	// A real update dirties scores near its endpoints: chunks are copied,
	// but far fewer entries than two full vectors' worth.
	if _, err := reg.applyEdges("g", base.Edges()[:2], false); err != nil {
		t.Fatal(err)
	}
	info3, _ := reg.Info("g")
	if info3.ScoresCopied == 0 {
		t.Fatal("score-changing drain copied nothing")
	}
	if total := int64(info3.N) * 2; info3.ScoresCopied >= total {
		t.Fatalf("scores_copied = %d, want < %d (the CoW must beat full copies)", info3.ScoresCopied, total)
	}

	// Exactness after partial copies: every maintained score equals a
	// from-scratch recompute.
	e, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	snap := e.snap.Load()
	want := ego.ComputeAll(snap.view)
	for v := int32(0); v < snap.view.NumVertices(); v++ {
		if snap.scores.At(v) != want[v] {
			t.Fatalf("score(%d) = %v, want %v", v, snap.scores.At(v), want[v])
		}
	}
}

// TestScoreVecChunks unit-tests the chunked vector's sharing discipline.
func TestScoreVecChunks(t *testing.T) {
	src := make([]float64, 2*scoreChunkSize+100)
	for i := range src {
		src[i] = float64(i)
	}
	s := newScoreVec(src, nil)
	if s.n != int32(len(src)) {
		t.Fatalf("n = %d, want %d", s.n, len(src))
	}
	for i := range src {
		if s.At(int32(i)) != src[i] {
			t.Fatalf("At(%d) = %v, want %v", i, s.At(int32(i)), src[i])
		}
	}

	// No change: same vector back.
	if next, copied := s.withUpdates(src, nil, nil); next != s || copied != 0 {
		t.Fatalf("no-op withUpdates: (%p, %d), want (%p, 0)", next, copied, s)
	}

	// One dirty vertex in chunk 1: chunks 0 and 2 shared, chunk 1 fresh.
	src[scoreChunkSize+5] = -1
	next, copied := s.withUpdates(src, nil, []int32{scoreChunkSize + 5})
	if copied != 1 {
		t.Fatalf("copied = %d, want 1", copied)
	}
	if next.At(scoreChunkSize+5) != -1 || s.At(scoreChunkSize+5) != float64(scoreChunkSize+5) {
		t.Fatal("dirty chunk not copied-on-write")
	}
	if &next.chunks[0][0] != &s.chunks[0][0] || &next.chunks[2][0] != &s.chunks[2][0] {
		t.Fatal("clean chunks not shared")
	}

	// Growth: the first grown vertex lands in the existing tail chunk
	// (copied because its score moved) and a second, brand-new chunk
	// materializes; the untouched chunks keep sharing.
	grown := append(append([]float64(nil), src...), make([]float64, scoreChunkSize)...)
	grown[len(src)] = 42
	next2, copied2 := next.withUpdates(grown, nil, []int32{int32(len(src))})
	if copied2 != 2 {
		t.Fatalf("growth copied = %d, want 2 (dirty tail chunk + new chunk)", copied2)
	}
	if next2.n != int32(len(grown)) || next2.At(int32(len(src))) != 42 {
		t.Fatal("growth not visible")
	}
	if &next2.chunks[1][0] != &next.chunks[1][0] {
		t.Fatal("growth invalidated a clean chunk")
	}
	if next2.stale != nil || next2.Stale(5) {
		t.Fatal("a vector with no flags reports a stale score")
	}

	// Stale flags (ModeLazy) ride in chunks of their own, copied with
	// their score chunk and shared otherwise.
	stale := make([]bool, len(grown))
	flagged := newScoreVec(grown, stale)
	if flagged.Stale(7) || len(flagged.stale) != len(flagged.chunks) {
		t.Fatal("fresh flags")
	}
	stale[7] = true
	next3, copied3 := flagged.withUpdates(grown, stale, []int32{7})
	if copied3 != 1 || !next3.Stale(7) || next3.Stale(8) || flagged.Stale(7) {
		t.Fatalf("a bound: copied %d, Stale(7)=%v Stale(8)=%v", copied3, next3.Stale(7), next3.Stale(8))
	}
	stale[2*scoreChunkSize] = true
	next4, _ := next3.withUpdates(grown, stale, []int32{2 * scoreChunkSize})
	if !next4.Stale(2*scoreChunkSize) || next3.Stale(2*scoreChunkSize) || !next4.Stale(7) {
		t.Fatal("a later bound is not copied-on-write")
	}
	if &next4.stale[0][0] != &next3.stale[0][0] || &next4.stale[1][0] != &next3.stale[1][0] {
		t.Fatal("clean flag chunks not shared")
	}
}
