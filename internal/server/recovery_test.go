package server

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
)

// The crash-recovery suite: build a graph, stream randomized update batches
// into a durable registry, kill it at an arbitrary point — including mid-
// checkpoint, via the injectable crash hook — reopen from disk, and require
// that every served top-k answer equals a from-scratch EgoBetweenness
// recompute of the graph the durable history implies. Runs under -race in
// CI (the Makefile's test target), which also exercises the lock-free
// persistence counters.

// scoreEps absorbs float drift between incremental maintenance (the
// recovered replay) and a from-scratch recomputation; ego-betweenness sums
// 1/c terms in different orders on the two paths.
const scoreEps = 1e-6

// scriptBatch is one pre-generated update batch.
type scriptBatch struct {
	insert bool
	edges  [][2]int32
}

// makeScript generates nBatches randomized batches against mirror, mutating
// mirror along the way so deletions target edges that exist. Roughly one
// edge in eight is deliberately invalid (duplicate insert, absent delete,
// self-loop) to exercise the per-edge error tolerance on both the live and
// the replay path.
func makeScript(rng *rand.Rand, mirror *graph.DynGraph, nBatches int) []scriptBatch {
	script := make([]scriptBatch, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		sb := scriptBatch{insert: rng.IntN(3) != 0} // 2:1 inserts to deletes
		for e := 0; e < 1+rng.IntN(4); e++ {
			n := mirror.NumVertices()
			u, v := int32(rng.IntN(int(n))), int32(rng.IntN(int(n)))
			if rng.IntN(8) != 0 {
				// Aim for a valid edge; 8 tries, then take what we have.
				for try := 0; try < 8; try++ {
					if u != v && mirror.HasEdge(u, v) != sb.insert {
						break
					}
					u, v = int32(rng.IntN(int(n))), int32(rng.IntN(int(n)))
				}
			}
			if sb.insert && rng.IntN(16) == 0 {
				v = n + int32(rng.IntN(3)) // grow the vertex set
			}
			sb.edges = append(sb.edges, [2]int32{u, v})
			// Mirror the application the server will perform (errors are
			// skipped per edge there, so ignore them here too).
			if sb.insert {
				_ = mirror.InsertEdge(u, v)
			} else {
				_ = mirror.DeleteEdge(u, v)
			}
		}
		script = append(script, sb)
	}
	return script
}

// stateAfter replays script[:upto] on a fresh copy of base and returns the
// resulting graph — the ground truth a recovered registry must match.
func stateAfter(base *graph.Graph, script []scriptBatch, upto int) *graph.Graph {
	mirror := graph.DynFromGraph(base)
	for _, sb := range script[:upto] {
		for _, e := range sb.edges {
			if sb.insert {
				_ = mirror.InsertEdge(e[0], e[1])
			} else {
				_ = mirror.DeleteEdge(e[0], e[1])
			}
		}
	}
	return mirror.Freeze(1)
}

// assertTopKEquiv requires got to be a valid top-k of the clean recompute
// want: same length, rank-by-rank scores within scoreEps, and every vertex
// scoring strictly above the boundary (want's k-th score) present — vertices
// tied at the boundary are interchangeable between equally valid top-k sets,
// which is exactly the tie-breaking contract pinned down in internal/topk.
func assertTopKEquiv(t *testing.T, label string, got, want []ego.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	if len(want) == 0 {
		return
	}
	for i := range want {
		if math.Abs(got[i].CB-want[i].CB) > scoreEps {
			t.Fatalf("%s: rank %d score %.9f, want %.9f\ngot  %v\nwant %v",
				label, i, got[i].CB, want[i].CB, got, want)
		}
	}
	boundary := want[len(want)-1].CB
	gotSet := make(map[int32]bool, len(got))
	for _, r := range got {
		gotSet[r.V] = true
	}
	for _, r := range want {
		if r.CB > boundary+scoreEps && !gotSet[r.V] {
			t.Fatalf("%s: vertex %d (cb %.9f, strictly above the boundary %.9f) missing\ngot  %v\nwant %v",
				label, r.V, r.CB, boundary, got, want)
		}
	}
}

// assertRecovered checks every served read shape of graph name against a
// from-scratch recompute on want.
func assertRecovered(t *testing.T, reg *Registry, name, mode string, want *graph.Graph) {
	t.Helper()
	info, err := reg.Info(name)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != want.NumVertices() || info.M != want.NumEdges() {
		t.Fatalf("recovered shape (n=%d,m=%d), want (n=%d,m=%d)", info.N, info.M, want.NumVertices(), want.NumEdges())
	}
	scores := ego.ComputeAll(want)
	algos := []string{AlgoOpt, AlgoBase}
	if mode == ModeLocal {
		algos = append(algos, AlgoScores)
	} else {
		algos = append(algos, AlgoLazy)
	}
	for _, k := range []int{1, 5, 10} {
		want := ego.TopKOfScores(scores, k)
		for _, algo := range algos {
			res, err := reg.topK(name, k, algo, 1.05)
			if err != nil {
				t.Fatalf("TopK(%s, k=%d): %v", algo, k, err)
			}
			assertTopKEquiv(t, fmt.Sprintf("k=%d algo=%s", k, algo), res.Results, want)
		}
	}
	if mode == ModeLocal {
		// The strongest statement: every maintained per-vertex score equals
		// the recompute.
		for v := int32(0); v < want.NumVertices(); v++ {
			vr, err := reg.EgoBetweenness(name, v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(vr.CB-scores[v]) > scoreEps {
				t.Fatalf("vertex %d recovered cb %.9f, recompute %.9f", v, vr.CB, scores[v])
			}
		}
	}
}

// durableRegistry builds a registry persisting under dir with an aggressive
// checkpoint policy so short tests cross checkpoint boundaries, plus any
// extra options.
func durableRegistry(dir string, extra ...RegistryOption) *Registry {
	opts := append([]RegistryOption{
		WithDataDir(dir),
		WithBuildWorkers(2),
		WithCheckpointPolicy(3, 1<<20),
	}, extra...)
	return NewRegistry(opts...)
}

// TestRecoveryEquivalence is the core property: for randomized batch
// sequences, kill points, and both maintenance modes, the reopened
// registry's answers equal a clean recompute — and keep doing so after the
// recovered registry applies the rest of the stream and is reopened once
// more (a second, clean restart).
func TestRecoveryEquivalence(t *testing.T) {
	const nBatches = 24
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for _, seed := range []uint64{1, 7} {
			for _, killAt := range []int{0, 1, 7, 16, nBatches} {
				t.Run(fmt.Sprintf("%s/seed%d/kill%d", mode, seed, killAt), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(seed, 0xE60B))
					base := gen.BarabasiAlbert(70, 3, seed)
					script := makeScript(rng, graph.DynFromGraph(base), nBatches)
					dir := t.TempDir()

					victim := durableRegistry(dir)
					if _, err := victim.Add("g", base, mode, 10); err != nil {
						t.Fatal(err)
					}
					for _, sb := range script[:killAt] {
						if _, err := victim.applyEdges("g", sb.edges, sb.insert); err != nil {
							t.Fatal(err)
						}
					}
					// Kill: no checkpoint, no flush — only the file contents
					// survive. Close stands in solely for the lock release a
					// real process death performs (it flushes nothing; every
					// durable byte was already written and fsynced).
					victim.Close()

					reborn := durableRegistry(dir)
					infos, err := reborn.Recover()
					if err != nil {
						t.Fatal(err)
					}
					if len(infos) != 1 || !infos[0].Persisted {
						t.Fatalf("recovered %+v, want one persisted graph", infos)
					}
					assertRecovered(t, reborn, "g", mode, stateAfter(base, script, killAt))

					// The recovered registry keeps serving writes durably:
					// finish the stream, restart again, recheck.
					for _, sb := range script[killAt:] {
						if _, err := reborn.applyEdges("g", sb.edges, sb.insert); err != nil {
							t.Fatal(err)
						}
					}
					assertRecovered(t, reborn, "g", mode, stateAfter(base, script, nBatches))
					reborn.Close()
					final := durableRegistry(dir)
					if _, err := final.Recover(); err != nil {
						t.Fatal(err)
					}
					defer final.Close()
					assertRecovered(t, final, "g", mode, stateAfter(base, script, nBatches))
				})
			}
		}
	}
}

// TestRecoveryCrashPoints kills the writer at every injectable durability
// point — before/after the WAL append, and at three points inside the
// checkpoint, including between the snapshot rename and the WAL truncation —
// and requires the reopened registry to match the recompute of exactly the
// durable history: batches before the kill, plus the killed batch iff its
// WAL append completed.
func TestRecoveryCrashPoints(t *testing.T) {
	points := []struct {
		point   string
		durable bool // the batch that crashed counts
	}{
		{store.CrashBeforeWALAppend, false},
		{store.CrashAfterWALAppend, true},
		{store.CrashBeforeCheckpoint, true},
		{store.CrashInStateWrite, true},
		{store.CrashAfterSnapshotTmp, true},
		{store.CrashAfterSnapshotRename, true},
	}
	errBoom := errors.New("injected crash")
	const killBatch = 5 // arms on the 6th batch — the checkpoint-every-3 boundary
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for _, tc := range points {
			t.Run(mode+"/"+tc.point, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(99, 0xE60B))
				base := gen.BarabasiAlbert(60, 3, 99)
				script := makeScript(rng, graph.DynFromGraph(base), killBatch+1)
				dir := t.TempDir()

				armed := false
				victim := durableRegistry(dir, WithCrashHook(func(g, p string) error {
					if armed && p == tc.point {
						return errBoom
					}
					return nil
				}))
				if _, err := victim.Add("g", base, mode, 10); err != nil {
					t.Fatal(err)
				}
				for _, sb := range script[:killBatch] {
					if _, err := victim.applyEdges("g", sb.edges, sb.insert); err != nil {
						t.Fatal(err)
					}
				}
				armed = true
				last := script[killBatch]
				if _, err := victim.applyEdges("g", last.edges, last.insert); !errors.Is(err, errBoom) {
					t.Fatalf("crash not injected: err = %v", err)
				}
				// The injected crash poisons the store: the victim must
				// refuse further durable writes rather than risk appending
				// behind a write of unknown extent.
				if _, err := victim.applyEdges("g", last.edges, last.insert); !errors.Is(err, ErrStorage) {
					t.Fatalf("post-crash write: err = %v, want ErrStorage", err)
				}
				victim.Close() // lock release only; content is as the crash left it

				reborn := durableRegistry(dir)
				if _, err := reborn.Recover(); err != nil {
					t.Fatal(err)
				}
				defer reborn.Close()
				upto := killBatch
				if tc.durable {
					upto++
				}
				assertRecovered(t, reborn, "g", mode, stateAfter(base, script, upto))
			})
		}
	}
}

// TestRecoveryGroupCommitCrash kills the write pipeline inside the
// group-commit window — between enqueue and the group WAL append, during
// the append (records written, fsync pending), and between the append and
// the apply / the snapshot publication — while a coalesced multi-batch
// group is in flight. The invariant: whatever prefix of the admitted
// stream the recovered WAL reports durable, the reopened registry serves
// exactly the top-k of a from-scratch recompute of that prefix.
func TestRecoveryGroupCommitCrash(t *testing.T) {
	points := []string{
		store.CrashBeforeWALAppend, // enqueue happened, group append did not: group lost
		store.CrashAfterGroupWrite, // records written, fsync pending: a kill keeps them
		store.CrashAfterWALAppend,  // group durable, never applied
		crashBeforeApply,           // same durability, server-level stage
		crashBeforePublish,         // applied in memory, snapshot never published
		crashAfterPublish,          // overlay published, compaction/checkpoint never ran
	}
	errBoom := errors.New("injected crash")
	const (
		preBatches   = 4 // committed cleanly before arming
		burstBatches = 3 // admitted async, coalesced by the flush window
	)
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for _, point := range points {
			t.Run(mode+"/"+point, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(41, 0xE60B))
				base := gen.BarabasiAlbert(60, 3, 41)
				script := makeScript(rng, graph.DynFromGraph(base), preBatches+burstBatches+1)
				dir := t.TempDir()

				armed := false
				victim := durableRegistry(dir,
					WithFlushInterval(150*time.Millisecond),
					WithCrashHook(func(g, p string) error {
						if armed && p == point {
							return errBoom
						}
						return nil
					}))
				if _, err := victim.Add("g", base, mode, 10); err != nil {
					t.Fatal(err)
				}
				for _, sb := range script[:preBatches] {
					if _, err := victim.applyEdges("g", sb.edges, sb.insert); err != nil {
						t.Fatal(err)
					}
				}
				// Arm, then admit the burst async (the writer's flush window
				// coalesces it into one group) and the next script batch
				// durable: its ack is the fence that proves the crash fired.
				armed = true
				for _, sb := range script[preBatches : preBatches+burstBatches] {
					if _, err := victim.applyEdgesAck("g", sb.edges, sb.insert, AckAsync); err != nil {
						t.Fatal(err)
					}
				}
				probe := script[preBatches+burstBatches]
				if _, err := victim.applyEdges("g", probe.edges, probe.insert); !errors.Is(err, ErrStorage) {
					t.Fatalf("probe after armed crash: err = %v, want ErrStorage", err)
				}
				// The pipeline is poisoned: further writes must keep failing
				// rather than diverge from the durable history.
				if _, err := victim.applyEdges("g", probe.edges, probe.insert); !errors.Is(err, ErrStorage) {
					t.Fatalf("second write after crash: err = %v, want ErrStorage", err)
				}
				victim.Close() // lock release only; files are as the crash left them

				reborn := durableRegistry(dir)
				infos, err := reborn.Recover()
				if err != nil {
					t.Fatal(err)
				}
				defer reborn.Close()
				if len(infos) != 1 {
					t.Fatalf("recovered %d graphs, want 1", len(infos))
				}
				// The WAL is the oracle: its last durable sequence names the
				// admitted prefix that survived (admission order is the
				// script order — one enqueueing goroutine). The crash point
				// bounds it: at least the pre-batches, at most everything
				// admitted.
				durable := int(infos[0].WALSeq)
				if durable < preBatches || durable > preBatches+burstBatches+1 {
					t.Fatalf("recovered wal_seq %d outside [%d, %d]", durable, preBatches, preBatches+burstBatches+1)
				}
				if point == store.CrashBeforeWALAppend && durable != preBatches {
					t.Fatalf("wal_seq %d after %s, want %d (group never written)", durable, point, preBatches)
				}
				assertRecovered(t, reborn, "g", mode, stateAfter(base, script, durable))
			})
		}
	}
}

// TestRecoveryTornWALTail simulates the one partial write a real crash can
// leave behind: garbage after the last complete WAL record. Recovery must
// drop exactly the torn bytes and serve the state of the complete prefix.
func TestRecoveryTornWALTail(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0xE60B))
	base := gen.BarabasiAlbert(60, 3, 3)
	script := makeScript(rng, graph.DynFromGraph(base), 2)
	dir := t.TempDir()

	victim := NewRegistry(WithDataDir(dir), WithBuildWorkers(1), WithCheckpointPolicy(100, 1<<30))
	if _, err := victim.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	for _, sb := range script {
		if _, err := victim.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
	}

	victim.Close()
	walPath := filepath.Join(store.GraphDir(dir, "g"), "wal.ebwl")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reborn := durableRegistry(dir)
	if _, err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	assertRecovered(t, reborn, "g", ModeLocal, stateAfter(base, script, len(script)))
}

// TestRecoveryInfoAndRemove covers the bookkeeping around the property
// tests: persistence fields in GraphInfo, checkpoint advancement, and
// Remove deleting the durable state so a restart no longer resurrects the
// graph.
func TestRecoveryInfoAndRemove(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(dir) // checkpoint every 3 batches
	base := gen.BarabasiAlbert(50, 3, 5)
	if _, err := reg.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	info, _ := reg.Info("g")
	if !info.Persisted || info.WALSeq != 0 || info.SnapshotSeq != 0 {
		t.Fatalf("fresh info = %+v", info)
	}
	for i := 0; i < 4; i++ {
		if _, err := reg.applyEdges("g", [][2]int32{{int32(i), int32(i + 10)}}, true); err != nil {
			t.Fatal(err)
		}
	}
	info, _ = reg.Info("g")
	if info.WALSeq != 4 || info.Checkpoints != 1 || info.SnapshotSeq != 3 {
		t.Fatalf("after 4 batches: %+v, want wal_seq=4 checkpoints=1 snapshot_seq=3", info)
	}
	if info.WALBytes <= 0 {
		t.Fatalf("wal_bytes = %d, want > 0", info.WALBytes)
	}

	if err := reg.Remove("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.GraphDir(dir, "g")); !os.IsNotExist(err) {
		t.Fatalf("store dir survives Remove: %v", err)
	}
	reborn := durableRegistry(dir)
	if infos, err := reborn.Recover(); err != nil || len(infos) != 0 {
		t.Fatalf("removed graph resurrected: %v %v", infos, err)
	}
}

// TestRecoverRejectsDuplicate: recovering into a registry that already
// serves the name must fail loudly instead of silently replacing state.
func TestRecoverRejectsDuplicate(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(dir)
	base := gen.BarabasiAlbert(30, 2, 1)
	if _, err := reg.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Recover(); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}
