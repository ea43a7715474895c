package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestExactAlgosByteIdentical: on one snapshot the exact strategies return
// the same encoded result list, ties at the k-th rank included — on the
// frozen snapshot of a fresh ModeLocal graph and on overlay snapshots.
//
// algo=opt and algo=base score every returned vertex with the same kernel,
// so they are held to byte equality everywhere. algo=scores reads the
// maintained vector, which a fresh build fills from the same score fold but
// LocalInsert/LocalDelete then move by float deltas: it is held to byte
// equality wherever no score has moved (the frozen snapshot, and an overlay
// published by a score-neutral batch — an edge between two new vertices),
// and to the recovery suites' tolerance after score-changing batches.
func TestExactAlgosByteIdentical(t *testing.T) {
	base := gen.Affiliation(300, 150, 5.5, 1, 29)
	reg := overlayRegistry(64)
	if _, err := reg.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, scoresExact bool) {
		t.Helper()
		info, err := reg.Info("g")
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 10, 50, int(info.N) / 2, int(info.N)} {
			answers := map[string]TopKResult{}
			for _, algo := range []string{AlgoOpt, AlgoBase, AlgoScores} {
				if answers[algo], err = reg.topK("g", k, algo, 0); err != nil {
					t.Fatalf("%s k=%d algo=%s: %v", stage, k, algo, err)
				}
			}
			want := encodeJSON(answers[AlgoOpt].Results)
			if got := encodeJSON(answers[AlgoBase].Results); !bytes.Equal(got, want) {
				t.Fatalf("%s k=%d: algo=base returns\n%s\nalgo=opt returns\n%s", stage, k, got, want)
			}
			if !scoresExact {
				assertTopKEquiv(t, fmt.Sprintf("%s k=%d algo=scores", stage, k), answers[AlgoScores].Results, answers[AlgoOpt].Results)
			} else if got := encodeJSON(answers[AlgoScores].Results); !bytes.Equal(got, want) {
				t.Fatalf("%s k=%d: algo=scores returns\n%s\nalgo=opt returns\n%s", stage, k, got, want)
			}
		}
	}
	overlayDepth := func() int {
		info, err := reg.Info("g")
		if err != nil {
			t.Fatal(err)
		}
		return info.OverlayDepth
	}
	check("frozen", true)

	n := base.NumVertices()
	if _, err := reg.applyEdges("g", [][2]int32{{n, n + 1}}, true); err != nil {
		t.Fatal(err)
	}
	if overlayDepth() != 1 {
		t.Fatalf("overlay depth %d after one batch, want 1", overlayDepth())
	}
	check("score-neutral overlay", true)

	rng := rand.New(rand.NewPCG(29, 0xA160))
	mirror := graph.DynFromGraph(base)
	for i, sb := range makeScript(rng, mirror, 10) {
		if _, err := reg.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("batch %d (overlay depth %d)", i, overlayDepth()), false)
	}
	if overlayDepth() < 2 {
		t.Fatalf("overlay depth %d after the script — the test lost its subject", overlayDepth())
	}
}
