package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"

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
			binary.LittleEndian.PutUint16(snap[at+4:at+6], store.StateVersion+1)
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
			algos := []string{AlgoOpt, AlgoBase, AlgoScores}
			if mode == ModeLazy {
				algos = []string{AlgoOpt, AlgoBase, AlgoLazy}
			}
			for _, k := range []int{1, 5, 10} {
				for _, algo := range algos {
					fr, err := fast.topK("g", k, algo, 1.05)
					if err != nil {
						t.Fatal(err)
					}
					rr, err := rebuilt.topK("g", k, algo, 1.05)
					if err != nil {
						t.Fatal(err)
					}
					assertTopKEquiv(t, fmt.Sprintf("fast-vs-rebuild k=%d algo=%s", k, algo), fr.Results, rr.Results)
				}
			}
		})
	}
}
