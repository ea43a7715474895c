package server

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// Served relabeling is retired (DESIGN.md §12), but data directories written
// by a daemon that ran the old -relabel flag carry an EBRL permutation
// section in their checkpoints. These tests are the backward-compatibility
// contract: such a directory recovers on the fast path and serves exactly
// what a directory without the section serves — the permutation is walked
// over, never applied.

// relabelEraDir writes, through internal/store alone, the data directory a
// graph in the given mode leaves behind after one delete batch and a
// state-carrying checkpoint — with perm as its EBRL section when non-nil —
// plus, when grow is set, one insert batch in the WAL tail that grows the
// vertex set past the permutation. It returns the graph that history
// implies.
func relabelEraDir(t *testing.T, dataDir, mode string, base *graph.Graph, perm []int32, grow bool) *graph.Graph {
	t.Helper()
	const lazyK = 10
	meta := store.SnapshotMeta{Mode: modeToTag(mode)}
	var (
		m interface {
			InsertEdge(u, v int32) error
			DeleteEdge(u, v int32) error
			Graph() *graph.DynGraph
		}
		export func() *store.MaintainerState
	)
	if mode == ModeLocal {
		local := dynamic.NewMaintainer(base)
		m, export = local, func() *store.MaintainerState { return &store.MaintainerState{Local: local.ExportState()} }
	} else {
		meta.LazyK = lazyK
		lazy := dynamic.NewLazyTopK(base, lazyK)
		m, export = lazy, func() *store.MaintainerState { return &store.MaintainerState{Lazy: lazy.ExportState()} }
	}
	st, err := store.Create(store.GraphDir(dataDir, "g"), base, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	apply := func(insert bool, e [2]int32) {
		t.Helper()
		if _, err := st.AppendBatches([]store.BatchSpec{{Insert: insert, Edges: [][2]int32{e}}}); err != nil {
			t.Fatal(err)
		}
		op := m.DeleteEdge
		if insert {
			op = m.InsertEdge
		}
		if err := op(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}

	apply(false, [2]int32{0, base.Neighbors(0)[0]})
	meta.Seq = st.Seq()
	if err := st.CheckpointFull(m.Graph().Freeze(1), meta, export(), perm, nil); err != nil {
		t.Fatal(err)
	}
	if grow {
		n := base.NumVertices()
		apply(true, [2]int32{n, n + 1})
	}
	return m.Graph().Freeze(1)
}

// checkpointHasPerm reports whether the checkpoint under dataDir carries a
// decodable EBRL section.
func checkpointHasPerm(t *testing.T, dataDir string) bool {
	t.Helper()
	img, err := os.ReadFile(store.SnapshotPath(store.GraphDir(dataDir, "g")))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := store.DecodeSnapshotPerm(img)
	if err != nil {
		t.Fatal(err)
	}
	return perm != nil
}

// TestRelabelServingEquivalence: in both maintenance modes, a checkpoint
// that carries an EBRL section recovers on the fast path, and every
// algorithm answers bit-identically — vertices, score bits, approx telemetry
// — to a twin whose checkpoint never had the section.
func TestRelabelServingEquivalence(t *testing.T) {
	base := gen.BarabasiAlbert(900, 10, 21) // hub-heavy: algo=approx actually samples
	perm := graph.DegreeRelabel(base).Perm
	for _, mode := range []string{ModeLocal, ModeLazy} {
		t.Run(mode, func(t *testing.T) {
			withDir, plainDir := t.TempDir(), t.TempDir()
			want := relabelEraDir(t, withDir, mode, base, perm, false)
			relabelEraDir(t, plainDir, mode, base, nil, false)
			if !checkpointHasPerm(t, withDir) || checkpointHasPerm(t, plainDir) {
				t.Fatal("setup: the EBRL section is not where the test expects it")
			}

			with, gi := recoverDir(t, withDir)
			defer with.Close()
			plain, _ := recoverDir(t, plainDir)
			defer plain.Close()
			if gi.RecoverPath != "fast" || gi.RecoverReason != "" {
				t.Fatalf("recover_path=%q reason=%q, want fast with no reason", gi.RecoverPath, gi.RecoverReason)
			}
			assertRecovered(t, with, "g", mode, want)

			algos := []string{AlgoOpt, AlgoBase, AlgoApprox, AlgoScores}
			if mode == ModeLazy {
				algos[3] = AlgoLazy
			}
			for _, algo := range algos {
				for _, k := range []int{1, 10, 100} {
					if algo == AlgoLazy && k > 10 {
						continue // the lazy set holds its configured k
					}
					label := fmt.Sprintf("algo=%s k=%d", algo, k)
					a, err := with.TopKQ("g", TopKQuery{K: k, Algo: algo})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					b, err := plain.TopKQ("g", TopKQuery{K: k, Algo: algo})
					if err != nil {
						t.Fatalf("%s (twin): %v", label, err)
					}
					if len(a.Results) != k || len(b.Results) != k {
						t.Fatalf("%s: %d and %d results", label, len(a.Results), len(b.Results))
					}
					for i := range a.Results {
						if a.Results[i].V != b.Results[i].V ||
							math.Float64bits(a.Results[i].CB) != math.Float64bits(b.Results[i].CB) {
							t.Fatalf("%s: rank %d is %+v with the section, %+v without", label, i, a.Results[i], b.Results[i])
						}
					}
					if a.ApproxSamples != b.ApproxSamples || a.ApproxEpsAchieved != b.ApproxEpsAchieved {
						t.Fatalf("%s: approx telemetry differs: %d/%v vs %d/%v", label,
							a.ApproxSamples, a.ApproxEpsAchieved, b.ApproxSamples, b.ApproxEpsAchieved)
					}
				}
			}
		})
	}
}

// TestRelabelRecoveryFallback: an EBRL section recovery cannot make sense of
// — stale because the WAL tail grew the graph past it, or damaged on disk —
// never costs the fast path or a correct answer, because nothing reads it.
func TestRelabelRecoveryFallback(t *testing.T) {
	base := gen.BarabasiAlbert(60, 3, 9)
	perm := graph.DegreeRelabel(base).Perm
	for _, damage := range []bool{false, true} {
		dir := t.TempDir()
		want := relabelEraDir(t, dir, ModeLocal, base, perm, true)
		if damage {
			// The EBRL section is the file's last: flip a payload byte.
			path := store.SnapshotPath(store.GraphDir(dir, "g"))
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			img[len(img)-8] ^= 0x40
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := store.DecodeSnapshotPerm(img); err == nil {
				t.Fatal("setup: damaged EBRL section still decodes")
			}
		}
		reborn, gi := recoverDir(t, dir)
		if gi.RecoverPath != "fast" || gi.RecoverReason != "" {
			t.Fatalf("damage=%v: recover_path=%q reason=%q, want fast with no reason", damage, gi.RecoverPath, gi.RecoverReason)
		}
		if gi.N != base.NumVertices()+2 {
			t.Fatalf("damage=%v: recovered n=%d, want %d", damage, gi.N, base.NumVertices()+2)
		}
		assertRecovered(t, reborn, "g", ModeLocal, want)
		reborn.Close()
	}
}
