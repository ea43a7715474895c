package server

import (
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMixedWorkloadStress runs every serving surface at once against a
// durable registry — top-k in all algorithms, per-vertex and stats reads,
// edge batches in both ack modes, Remove/re-Add churn — under -race, with
// three global assertions: every response's epoch is monotone per graph
// (per observer), a top-k answer served at the epoch a reader saw published
// is the library OptBSearch's on that snapshot's view, and after a kill
// injected mid-drain the recovered registry still equals a from-scratch
// recompute of the durable history.
func TestMixedWorkloadStress(t *testing.T) {
	const scriptLen = 40
	dir := t.TempDir()
	var killArmed atomic.Bool
	errBoom := errors.New("injected mid-drain kill")
	victim := NewRegistry(
		WithDataDir(dir), WithCheckpointPolicy(7, 1<<20),
		WithCrashHook(func(g, p string) error {
			if killArmed.Load() && g == "main" && p == crashBeforeApply {
				return errBoom
			}
			return nil
		}))

	base := gen.BarabasiAlbert(70, 3, 11)
	rng := rand.New(rand.NewPCG(11, 0xE60B))
	script := makeScript(rng, graph.DynFromGraph(base), scriptLen+4)
	if _, err := victim.Add("main", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Add("churn", gen.BarabasiAlbert(50, 3, 12), ModeLazy, 5); err != nil {
		t.Fatal(err)
	}

	mainEntry, err := victim.get("main")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: streams the script into "main" sequentially, alternating ack
	// modes. Durable responses must carry monotone epochs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for i, sb := range script[:scriptLen] {
			if i%3 == 2 {
				if _, err := victim.applyEdgesAck("main", sb.edges, sb.insert, AckAsync); err != nil && !errors.Is(err, ErrBacklog) {
					t.Errorf("async write %d: %v", i, err)
					return
				}
				continue
			}
			res, err := victim.applyEdges("main", sb.edges, sb.insert)
			if err != nil {
				t.Errorf("durable write %d: %v", i, err)
				return
			}
			if res.Epoch < last {
				t.Errorf("writer epoch regressed %d -> %d", last, res.Epoch)
				return
			}
			last = res.Epoch
		}
	}()

	// Readers on "main": every exact spelling, per-vertex, stats; each
	// observer's epochs must be non-decreasing, and a top-k answer at the
	// epoch loaded before it must be the search's on that view.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, seed))
			algos := []string{AlgoScores, AlgoOpt, AlgoBase}
			last := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var epoch uint64
				switch rng.IntN(3) {
				case 0:
					k, snap := 1+rng.IntN(10), mainEntry.snap.Load()
					res, err := victim.topK("main", k, algos[rng.IntN(len(algos))])
					if err != nil {
						t.Errorf("reader topk: %v", err)
						return
					}
					if want, _ := ego.OptBSearch(snap.view, k, ego.DefaultTheta); res.Epoch == snap.epoch && !slices.Equal(res.Results, want) {
						t.Errorf("reader topk k=%d at epoch %d: %v, OptBSearch %v", k, res.Epoch, res.Results, want)
						return
					}
					epoch = res.Epoch
				case 1:
					vr, err := victim.EgoBetweenness("main", int32(rng.IntN(70)))
					if err != nil {
						t.Errorf("reader vertex: %v", err)
						return
					}
					epoch = vr.Epoch
				default:
					st, err := victim.Stats("main")
					if err != nil {
						t.Errorf("reader stats: %v", err)
						return
					}
					epoch = st.Epoch
				}
				if epoch < last {
					t.Errorf("reader epoch regressed %d -> %d", last, epoch)
					return
				}
				last = epoch
			}
		}(uint64(r + 100))
	}

	// Churn on the second graph: Remove / re-Add while writers (both ack
	// modes) and a lazy reader hammer it, all tolerating clean not-found
	// and backpressure errors — anything else is a bug.
	tolerable := func(err error) bool {
		return err == nil || errors.Is(err, ErrBacklog) ||
			strings.Contains(err.Error(), "no graph named")
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ack := AckDurable
			if w == 1 {
				ack = AckAsync
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := victim.applyEdgesAck("churn", [][2]int32{{int32(i % 50), int32(50 + i%13)}}, true, ack); !tolerable(err) {
					t.Errorf("churn writer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := victim.topK("churn", 3, AlgoScores); !tolerable(err) {
				t.Errorf("churn lazy-mode reader: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for round := 0; round < 3; round++ {
			time.Sleep(2 * time.Millisecond)
			if err := victim.Remove("churn"); err != nil && !strings.Contains(err.Error(), "no graph named") {
				t.Errorf("churn remove: %v", err)
				return
			}
			if _, err := victim.Add("churn", gen.BarabasiAlbert(50, 3, uint64(13+round)), ModeLazy, 5); err != nil {
				t.Errorf("churn re-add: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Kill mid-drain: arm the hook, admit a fresh async burst, and use a
	// durable probe as the fence proving the pipeline died inside the group
	// commit (after the WAL append, before the apply).
	killArmed.Store(true)
	for _, sb := range script[scriptLen : scriptLen+3] {
		if _, err := victim.applyEdgesAck("main", sb.edges, sb.insert, AckAsync); err != nil {
			t.Fatal(err)
		}
	}
	probe := script[scriptLen+3]
	if _, err := victim.applyEdges("main", probe.edges, probe.insert); !errors.Is(err, ErrStorage) {
		t.Fatalf("probe after armed kill: err = %v, want ErrStorage", err)
	}
	victim.Close()

	// Recovery equivalence: whatever prefix of the admitted stream the WAL
	// reports durable (admission order == script order: one writer
	// goroutine, async and durable batches interleaved FIFO) must be what
	// the reopened registry serves.
	reborn := NewRegistry(WithDataDir(dir))
	infos, err := reborn.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	var mainSeq uint64
	found := false
	for _, gi := range infos {
		if gi.Name == "main" {
			mainSeq, found = gi.WALSeq, true
		}
	}
	if !found {
		t.Fatalf("graph \"main\" not recovered: %+v", infos)
	}
	if int(mainSeq) < scriptLen {
		t.Fatalf("recovered wal_seq %d, want ≥ %d (whole stress stream durable)", mainSeq, scriptLen)
	}
	assertRecovered(t, reborn, "main", ModeLocal, stateAfter(base, script, int(mainSeq)))
}
