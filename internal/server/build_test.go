package server

import (
	"math"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
)

// TestParallelBuildMatchesSequential checks that a registry with a multi-
// worker build budget serves the same scores as a single-worker one, and
// that the build telemetry (worker count, snapshot build duration) is
// surfaced through GraphInfo across epochs.
func TestParallelBuildMatchesSequential(t *testing.T) {
	g := gen.BarabasiAlbert(800, 4, 99)
	want := ego.ComputeAll(g)

	for _, workers := range []int{1, 4} {
		reg := NewRegistry()
		reg.workers = workers
		info, err := reg.Add("g", g, ModeLocal, 0)
		if err != nil {
			t.Fatalf("workers=%d: Add: %v", workers, err)
		}
		if info.BuildWorkers != workers {
			t.Errorf("workers=%d: BuildWorkers = %d", workers, info.BuildWorkers)
		}
		if info.CompactMS < 0 {
			t.Errorf("workers=%d: negative CompactMS %v", workers, info.CompactMS)
		}
		res, err := reg.topK("g", 10, AlgoScores)
		if err != nil {
			t.Fatalf("workers=%d: TopK: %v", workers, err)
		}
		for _, r := range res.Results {
			if math.Abs(r.CB-want[r.V]) > 1e-9 {
				t.Errorf("workers=%d: CB(%d) = %v, want %v", workers, r.V, r.CB, want[r.V])
			}
		}

		// A write batch publishes a new snapshot; its build telemetry
		// must carry the same worker budget.
		up, err := reg.applyEdges("g", g.Edges()[:2], false)
		if err != nil {
			t.Fatalf("workers=%d: ApplyEdges: %v", workers, err)
		}
		if up.Applied == 0 {
			t.Fatalf("workers=%d: no edges applied", workers)
		}
		info2, err := reg.Info("g")
		if err != nil {
			t.Fatalf("workers=%d: Info: %v", workers, err)
		}
		if info2.Epoch != info.Epoch+1 {
			t.Errorf("workers=%d: epoch = %d, want %d", workers, info2.Epoch, info.Epoch+1)
		}
		if info2.BuildWorkers != workers {
			t.Errorf("workers=%d: post-batch BuildWorkers = %d", workers, info2.BuildWorkers)
		}
		// Post-batch snapshot must still serve exact maintained scores.
		vres, err := reg.EgoBetweenness("g", 5)
		if err != nil {
			t.Fatalf("workers=%d: EgoBetweenness: %v", workers, err)
		}
		if vres.CB < 0 || vres.CB > vres.Bound+1e-9 {
			t.Errorf("workers=%d: CB(5) = %v outside [0, %v]", workers, vres.CB, vres.Bound)
		}
	}
}

// TestParallelBuildLazyMode checks that lazy mode serves the same top-k
// under a 1- and a 4-worker build budget (the budget shards freezes and
// compactions; the maintainer's own sweep runs on GOMAXPROCS).
func TestParallelBuildLazyMode(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 17)
	seq, par := NewRegistry(), NewRegistry()
	seq.workers, par.workers = 1, 4
	if _, err := seq.Add("g", g, ModeLazy, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Add("g", g, ModeLazy, 8); err != nil {
		t.Fatal(err)
	}
	a, err := seq.topK("g", 8, AlgoScores)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.topK("g", 8, AlgoScores)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result sizes differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].V != b.Results[i].V || math.Abs(a.Results[i].CB-b.Results[i].CB) > 1e-9 {
			t.Errorf("rank %d: sequential %v, parallel %v", i, a.Results[i], b.Results[i])
		}
	}
}
