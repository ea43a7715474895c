package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// The instant-recovery test layer (DESIGN.md §11): a checkpointed graph must
// come back through the fast path — maintainer state imported from the
// snapshot's state section instead of recomputed — and every way that section
// can be missing or damaged must land on the rebuild path with a reason,
// serving answers indistinguishable from the fast path either way.

// checkpointedDir streams enough batches through a durable registry to force
// at least one state-carrying checkpoint, closes it, and returns the ground
// truth graph the durable history implies.
func checkpointedDir(t *testing.T, dir, mode string, seed uint64, nBatches int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xFA57))
	base := gen.BarabasiAlbert(60, 3, seed)
	script := makeScript(rng, graph.DynFromGraph(base), nBatches)
	reg := durableRegistry(dir)
	if _, err := reg.Add("g", base, mode, 10); err != nil {
		t.Fatal(err)
	}
	for _, sb := range script {
		if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
	}
	info, err := reg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Checkpoints < 1 {
		t.Fatalf("setup produced no checkpoint (%d batches)", nBatches)
	}
	reg.Close()
	return stateAfter(base, script, nBatches)
}

// recoverDir reopens dir and returns the (single) recovered GraphInfo plus
// the registry, which the caller must Close.
func recoverDir(t *testing.T, dir string) (*Registry, GraphInfo) {
	t.Helper()
	reg := durableRegistry(dir)
	infos, err := reg.Recover()
	if err != nil {
		reg.Close()
		t.Fatal(err)
	}
	if len(infos) != 1 {
		reg.Close()
		t.Fatalf("recovered %d graphs, want 1", len(infos))
	}
	return reg, infos[0]
}

// TestRecoveryFastPath: after a state-carrying checkpoint, recovery imports
// the maintainer state (recover_path=fast, no reason) and the served answers
// match a clean recompute of the durable history — for both maintenance
// modes, including a WAL tail replayed on top of the imported state, and the
// fast-recovered registry keeps taking durable writes that survive a second
// restart.
func TestRecoveryFastPath(t *testing.T) {
	const nBatches = 7 // checkpoint-every-3 → checkpoint at 6, one tail batch
	for _, mode := range []string{ModeLocal, ModeLazy} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			want := checkpointedDir(t, dir, mode, 11, nBatches)

			reborn, gi := recoverDir(t, dir)
			if gi.RecoverPath != "fast" || gi.RecoverReason != "" {
				t.Fatalf("recover_path=%q reason=%q, want fast with no reason", gi.RecoverPath, gi.RecoverReason)
			}
			assertRecovered(t, reborn, "g", mode, want)

			// Still a fully working durable pipeline after a fast boot.
			if _, err := reborn.applyEdges("g", [][2]int32{{0, 7}}, false); err != nil {
				t.Fatal(err)
			}
			mirror := graph.DynFromGraph(want)
			_ = mirror.DeleteEdge(0, 7)
			want2 := mirror.Freeze(1)
			assertRecovered(t, reborn, "g", mode, want2)
			reborn.Close()

			final, gi2 := recoverDir(t, dir)
			defer final.Close()
			if gi2.RecoverPath == "" {
				t.Fatal("second recovery reported no recover_path")
			}
			assertRecovered(t, final, "g", mode, want2)
		})
	}
}

// TestCheckpointKeepsOverlayView: a checkpoint encodes the maintainer's
// live graph and leaves the served view alone — an overlay at least two
// layers deep, with the compaction policy off — flattening nothing. The
// next compaction audits with zero mismatches; the checkpoint recovers on
// the fast path, its WAL tail replayed, and answers every exact read as the
// library OptBSearch does on the durable history; and the recovered graph's
// first compaction audits clean too. Both modes.
func TestCheckpointKeepsOverlayView(t *testing.T) {
	for _, mode := range []string{ModeLocal, ModeLazy} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(5, 0xC4E0))
			base := gen.BarabasiAlbert(80, 3, 5)
			script := makeScript(rng, graph.DynFromGraph(base), 5)
			dir := t.TempDir()
			reg := durableRegistry(dir) // a checkpoint every 3 batches
			if _, err := reg.Add("g", base, mode, 0); err != nil {
				t.Fatal(err)
			}
			policyOff := func(reg *Registry) *entry {
				e, err := reg.get("g")
				if err != nil {
					t.Fatal(err)
				}
				e.mu.Lock()
				e.maxDepth, e.dirtyRatio = math.MaxInt, 1e9
				e.mu.Unlock()
				return e
			}
			apply := func(reg *Registry, sb scriptBatch) GraphInfo {
				t.Helper()
				if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
					t.Fatal(err)
				}
				info, err := reg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				return info
			}
			auditClean := func(reg *Registry, e *entry) {
				t.Helper()
				compactNow(t, e)
				info, err := reg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				if info.OverlayDepth != 0 || info.Compactions != 1 || info.Audited == 0 || info.AuditMismatches != 0 {
					t.Fatalf("after one compaction: depth %d, %d compactions audited %d scores, %d mismatches (%s)",
						info.OverlayDepth, info.Compactions, info.Audited, info.AuditMismatches, info.AuditFirstMismatch)
				}
			}

			e := policyOff(reg)
			apply(reg, script[0])
			before := apply(reg, script[1])
			info := apply(reg, script[2])
			if info.Checkpoints != 1 || info.Compactions != 0 || info.OverlayDepth < 2 || info.OverlayDepth < before.OverlayDepth {
				t.Fatalf("checkpoint commit: %d checkpoints, %d compactions, overlay depth %d → %d; want one checkpoint over an unflattened chain",
					info.Checkpoints, info.Compactions, before.OverlayDepth, info.OverlayDepth)
			}
			apply(reg, script[3]) // the WAL tail
			auditClean(reg, e)
			reg.Close()

			reborn, gi := recoverDir(t, dir)
			defer reborn.Close()
			if gi.RecoverPath != "fast" || gi.RecoverReason != "" {
				t.Fatalf("recover_path=%q reason=%q, want fast with no reason", gi.RecoverPath, gi.RecoverReason)
			}
			want := stateAfter(base, script, 4)
			for _, k := range exactKs(want.NumVertices()) {
				opt, _ := ego.OptBSearch(want, k, ego.DefaultTheta)
				for _, algo := range []string{AlgoScores, AlgoOpt} {
					res, err := reborn.topK("g", k, algo)
					if err != nil {
						t.Fatal(err)
					}
					if got := encodeJSON(res.Results); !bytes.Equal(got, encodeJSON(opt)) {
						t.Fatalf("recovered k=%d algo=%s serves\n%s\nOptBSearch\n%s", k, algo, got, encodeJSON(opt))
					}
				}
			}
			e = policyOff(reborn)
			apply(reborn, script[4])
			auditClean(reborn, e)
			assertRecovered(t, reborn, "g", mode, stateAfter(base, script, 5))
		})
	}
}

// TestRecoveryFallbackPreState: a store that never took a state-carrying
// checkpoint (its snapshot is the version-1 file Create wrote — the pre-PR6
// on-disk era) still recovers, via rebuild, with the reason saying why.
func TestRecoveryFallbackPreState(t *testing.T) {
	for _, mode := range []string{ModeLocal, ModeLazy} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(3, 0xFA57))
			base := gen.BarabasiAlbert(50, 3, 3)
			script := makeScript(rng, graph.DynFromGraph(base), 2) // below the every-3 policy
			dir := t.TempDir()
			reg := durableRegistry(dir)
			if _, err := reg.Add("g", base, mode, 10); err != nil {
				t.Fatal(err)
			}
			for _, sb := range script {
				if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
					t.Fatal(err)
				}
			}
			reg.Close()

			reborn, gi := recoverDir(t, dir)
			defer reborn.Close()
			if gi.RecoverPath != "rebuild" || gi.RecoverReason == "" {
				t.Fatalf("recover_path=%q reason=%q, want rebuild with a reason", gi.RecoverPath, gi.RecoverReason)
			}
			assertRecovered(t, reborn, "g", mode, stateAfter(base, script, len(script)))
		})
	}
}

// TestRecoveryFallbackCorruption is the serving half of the corruption
// matrix: each defect is carved into the snapshot file of a healthy
// checkpointed store, and recovery must degrade to the rebuild path — same
// answers, recover_path=rebuild, a non-empty reason — never fail, never
// serve from the damaged state.
func TestRecoveryFallbackCorruption(t *testing.T) {
	stateMagic := []byte("EBMS")
	cases := map[string]func(t *testing.T, snap []byte) []byte{
		"truncated section": func(t *testing.T, snap []byte) []byte {
			return snap[:len(snap)-40]
		},
		"flipped state crc": func(t *testing.T, snap []byte) []byte {
			snap[len(snap)-1] ^= 0x01
			return snap
		},
		"state version bump": func(t *testing.T, snap []byte) []byte {
			at := bytes.LastIndex(snap, stateMagic)
			if at < 0 {
				t.Fatal("no state section in checkpointed snapshot")
			}
			// One past the section's own version: each mode has its own.
			v := binary.LittleEndian.Uint16(snap[at+4 : at+6])
			binary.LittleEndian.PutUint16(snap[at+4:at+6], v+1)
			return snap
		},
		"evidence/CSR mismatch": func(t *testing.T, snap []byte) []byte {
			at := bytes.LastIndex(snap, stateMagic)
			if at < 0 {
				t.Fatal("no state section in checkpointed snapshot")
			}
			n := binary.LittleEndian.Uint32(snap[at+8 : at+12])
			binary.LittleEndian.PutUint32(snap[at+8:at+12], n+5)
			return snap
		},
	}
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for name, mutate := range cases {
			t.Run(mode+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				want := checkpointedDir(t, dir, mode, 17, 7)
				snapPath := filepath.Join(store.GraphDir(dir, "g"), "snapshot.ebws")
				snap, err := os.ReadFile(snapPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, mutate(t, snap), 0o644); err != nil {
					t.Fatal(err)
				}

				reborn, gi := recoverDir(t, dir)
				defer reborn.Close()
				if gi.RecoverPath != "rebuild" || gi.RecoverReason == "" {
					t.Fatalf("recover_path=%q reason=%q, want rebuild with a reason", gi.RecoverPath, gi.RecoverReason)
				}
				t.Logf("fallback reason: %s", gi.RecoverReason)
				assertRecovered(t, reborn, "g", mode, want)
			})
		}
	}
}

// TestRecoveryFallbackScoreOffFold: a checkpoint whose maintained scores are
// not their evidence folded — what a maintainer that summed float deltas
// wrote, one ulp off the kernel — passes every checksum, so the import's
// refold check is what sends recovery down the rebuild path, with a reason
// naming the vertex, and the rebuilt answers are the kernel's.
func TestRecoveryFallbackScoreOffFold(t *testing.T) {
	base := gen.BarabasiAlbert(60, 3, 23)
	n := base.NumVertices()
	dir := t.TempDir()
	reg := durableRegistry(dir)
	if _, err := reg.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	mirror := graph.DynFromGraph(base)
	for _, e := range [][2]int32{{0, 30}, {1, 40}} {
		if _, err := reg.applyEdges("g", [][2]int32{e}, !mirror.HasEdge(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
		if mirror.HasEdge(e[0], e[1]) {
			_ = mirror.DeleteEdge(e[0], e[1])
		} else {
			_ = mirror.InsertEdge(e[0], e[1])
		}
	}
	e, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	scores := e.m.All()
	scores[5] = math.Nextafter(scores[5], math.Inf(1))
	e.mu.Unlock()
	// The third batch takes the checkpoint; an edge between two new vertices
	// moves no existing score, so vertex 5 is still off its fold on disk.
	if _, err := reg.applyEdges("g", [][2]int32{{n, n + 1}}, true); err != nil {
		t.Fatal(err)
	}
	_ = mirror.InsertEdge(n, n+1)
	if info, err := reg.Info("g"); err != nil || info.Checkpoints < 1 {
		t.Fatalf("no checkpoint taken (%v)", err)
	}
	reg.Close()

	reborn, gi := recoverDir(t, dir)
	defer reborn.Close()
	if gi.RecoverPath != "rebuild" || !strings.Contains(gi.RecoverReason, "persisted score of vertex 5") {
		t.Fatalf("recover_path=%q reason=%q, want rebuild naming vertex 5's score", gi.RecoverPath, gi.RecoverReason)
	}
	assertRecovered(t, reborn, "g", ModeLocal, mirror.Freeze(1))
}

// TestRecoveryStateVersion1: a data dir whose checkpoint carries a
// maintainer-state section of version 1 (internal/store's
// statev1_local_batch.snap) recovers through the rebuild path with the
// version as the reason, serves byte for byte what a fresh registry over the
// same graph serves, and — once a checkpoint has rewritten the section in
// the current version — recovers fast.
func TestRecoveryStateVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "store", "testdata", "statev1_local_batch.snap"))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := store.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.InstallSnapshot(store.GraphDir(dir, "g"), data); err != nil {
		t.Fatal(err)
	}
	reborn, gi := recoverDir(t, dir)
	if gi.RecoverPath != "rebuild" || !strings.Contains(gi.RecoverReason, "maintainer-state version 1") {
		reborn.Close()
		t.Fatalf("recover_path=%q reason=%q, want rebuild naming maintainer-state version 1", gi.RecoverPath, gi.RecoverReason)
	}
	fresh := NewRegistry()
	defer fresh.Close()
	if _, err := fresh.Add("g", g, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		for _, algo := range []string{AlgoOpt, AlgoBase, AlgoScores} {
			got, err := reborn.topK("g", k, algo)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.topK("g", k, algo)
			if err != nil {
				t.Fatal(err)
			}
			assertTopKEqual(t, fmt.Sprintf("k=%d algo=%s", k, algo), got.Results, want.Results)
		}
	}
	for v := int32(0); v < g.NumVertices(); v++ {
		got, err := reborn.EgoBetweenness("g", v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.EgoBetweenness("g", v)
		if err != nil {
			t.Fatal(err)
		}
		got.Epoch = want.Epoch // recovery restarts the epoch at the WAL sequence
		if !bytes.Equal(encodeJSON(got), encodeJSON(want)) {
			t.Fatalf("vertex %d: recovered %s, fresh %s", v, encodeJSON(got), encodeJSON(want))
		}
	}

	// Three batches take a checkpoint (durableRegistry's policy); the next
	// recovery imports the rewritten state.
	mirror := graph.DynFromGraph(g)
	for _, e := range [][2]int32{{0, 4}, {1, 4}, {0, 3}} {
		if _, err := reborn.applyEdges("g", [][2]int32{e}, !mirror.HasEdge(e[0], e[1])); err != nil {
			t.Fatal(err)
		}
		if mirror.HasEdge(e[0], e[1]) {
			_ = mirror.DeleteEdge(e[0], e[1])
		} else {
			_ = mirror.InsertEdge(e[0], e[1])
		}
	}
	reborn.Close()
	again, gi := recoverDir(t, dir)
	defer again.Close()
	if gi.RecoverPath != "fast" {
		t.Fatalf("after a checkpoint: recover_path=%q reason=%q, want fast", gi.RecoverPath, gi.RecoverReason)
	}
	assertRecovered(t, again, "g", ModeLocal, mirror.Freeze(1))
}

// TestRecoveryFastVsRebuildEquivalence pins the two recovery paths against
// each other on the same durable history: one registry boots fast, another
// boots from the same bytes with the state section stripped (forcing a
// rebuild), and every maintained per-vertex score and top-k shape must agree
// between them — on top of both agreeing with the clean recompute.
func TestRecoveryFastVsRebuildEquivalence(t *testing.T) {
	for _, mode := range []string{ModeLocal, ModeLazy} {
		t.Run(mode, func(t *testing.T) {
			fastDir := t.TempDir()
			want := checkpointedDir(t, fastDir, mode, 23, 7)

			// Clone the store directory, then chop the clone's snapshot back
			// to its graph part: same graph, same WAL tail, no state section.
			rebuildDir := t.TempDir()
			src, dst := store.GraphDir(fastDir, "g"), store.GraphDir(rebuildDir, "g")
			if err := os.MkdirAll(dst, 0o755); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range ents {
				data, err := os.ReadFile(filepath.Join(src, ent.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			snapPath := filepath.Join(dst, "snapshot.ebws")
			snap, err := os.ReadFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			at := bytes.LastIndex(snap, []byte("EBMS"))
			if at < 0 {
				t.Fatal("no state section in checkpointed snapshot")
			}
			if err := os.WriteFile(snapPath, snap[:at], 0o644); err != nil {
				t.Fatal(err)
			}

			fast, fgi := recoverDir(t, fastDir)
			defer fast.Close()
			rebuilt, rgi := recoverDir(t, rebuildDir)
			defer rebuilt.Close()
			if fgi.RecoverPath != "fast" {
				t.Fatalf("fast dir recovered via %q (%s)", fgi.RecoverPath, fgi.RecoverReason)
			}
			if rgi.RecoverPath != "rebuild" || rgi.RecoverReason == "" {
				t.Fatalf("stripped dir recovered via %q (%s)", rgi.RecoverPath, rgi.RecoverReason)
			}

			assertRecovered(t, fast, "g", mode, want)
			assertRecovered(t, rebuilt, "g", mode, want)
			for _, k := range []int{1, 5, 10} {
				for _, algo := range []string{AlgoOpt, AlgoBase, AlgoScores} {
					fr, err := fast.topK("g", k, algo)
					if err != nil {
						t.Fatal(err)
					}
					rr, err := rebuilt.topK("g", k, algo)
					if err != nil {
						t.Fatal(err)
					}
					assertTopKEqual(t, fmt.Sprintf("fast-vs-rebuild k=%d algo=%s", k, algo), fr.Results, rr.Results)
				}
			}
		})
	}
}
