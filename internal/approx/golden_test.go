package approx

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

// goldenRun is one pinned TopK answer: every returned (vertex, estimate)
// and the full Stats, floats stored as IEEE-754 bit patterns so the
// comparison is bit-for-bit.
type goldenRun struct {
	Case        string      `json:"case"` // shape/k
	Results     [][2]uint64 `json:"results"`
	Candidates  int         `json:"candidates"`
	Escalations int         `json:"escalations"`
	Exact       int64       `json:"exact"`
	Sampled     int64       `json:"sampled"`
	Pruned      int64       `json:"pruned"`
	Samples     int64       `json:"samples"`
	EpsAchieved uint64      `json:"eps_achieved"`
}

func goldenOf(name string, g graph.View, k int, o Options) goldenRun {
	res, st := TopK(g, k, o)
	run := goldenRun{
		Case: name, Results: make([][2]uint64, len(res)),
		Candidates: st.Candidates, Escalations: st.Escalations, Exact: st.Exact,
		Sampled: st.Sampled, Pruned: st.Pruned, Samples: st.Samples,
		EpsAchieved: math.Float64bits(st.EpsAchieved),
	}
	for i, r := range res {
		run.Results[i] = [2]uint64{uint64(r.V), math.Float64bits(r.CB)}
	}
	return run
}

// overlayOf returns g as a two-link overlay chain over a frozen base that
// lacks every edge into the top eighth of the id range: half of the missing
// edges arrive in a first delta, the rest in a second on top of it.
func overlayOf(t testing.TB, g *graph.Graph) graph.View {
	t.Helper()
	cut := g.NumVertices() - g.NumVertices()/8
	var baseEdges, extra [][2]int32
	graph.EachEdgeIn(g, func(u, v int32) bool {
		if v >= cut {
			extra = append(extra, [2]int32{u, v})
		} else {
			baseEdges = append(baseEdges, [2]int32{u, v})
		}
		return true
	})
	base := graph.MustFromEdges(g.NumVertices(), baseEdges)
	dyn := graph.DynFromGraph(base)
	insert := func(edges [][2]int32) {
		for _, e := range edges {
			if err := dyn.InsertEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(extra[:len(extra)/2])
	first := dyn.FreezeOverlay(base)
	insert(extra[len(extra)/2:])
	return dyn.FreezeOverlay(first)
}

// TestTopKGolden pins TopK — results and every Stats field, bit for bit — on
// the benchmark's two generator shapes, a preferential-attachment graph, a
// tight-ε run and a flat-degree graph whose pool escalates, at k = 10 and 100
// under fixed seeds. The goldens were recorded when the cost rule became one
// comparison at a candidate's first touch; each case must reproduce them at
// 1 and 3 workers on the frozen graph and on an overlay chain of the same
// adjacency. Every case samples — under that rule the collab, ba and flat
// shapes resolve every candidate exactly at the default ε, so they run at a
// coarser one, and the tight run takes hubs whose passes outprice a 0.02
// budget — and a case whose returned vertices all resolved exactly (zero
// achieved ε) must also be the exact top-k.
func TestTopKGolden(t *testing.T) {
	shapes := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"collab", gen.Affiliation(4000, 2000, 5.5, 1, 9), Options{Seed: 7, Eps: 0.15}},
		{"powerlaw", gen.ChungLu(6000, 2.2, 5.3, 500, 11), Options{Seed: 42}},
		{"ba", gen.BarabasiAlbert(1200, 10, 3), Options{Seed: 99, Eps: 0.1}},
		{"tight", gen.ChungLu(6000, 2.1, 8, 1200, 11), Options{Seed: 5, Eps: 0.02}},
		{"flat", gen.WattsStrogatz(1500, 40, 0.2, 4), Options{Seed: 3, Eps: 0.2}},
	}
	var want []goldenRun
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	var lines [][]byte // -update: one run per line
	for _, sh := range shapes {
		views := map[string]graph.View{"frozen": sh.g, "overlay": overlayOf(t, sh.g)}
		for _, k := range []int{10, 100} {
			name := fmt.Sprintf("%s/k=%d", sh.name, k)
			if *updateGolden {
				line, err := json.Marshal(goldenOf(name, sh.g, k, sh.opt))
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, line)
				continue
			}
			if len(want) == 0 || want[0].Case != name {
				t.Fatalf("no golden for %q where expected (rerun with -update)", name)
			}
			w := want[0]
			want = want[1:]
			if w.Sampled == 0 {
				t.Fatalf("%s: golden never sampled", name)
			}
			if w.EpsAchieved == 0 {
				ex := ego.TopKExact(sh.g, k)
				exact := make([][2]uint64, len(ex))
				for i, r := range ex {
					exact[i] = [2]uint64{uint64(r.V), math.Float64bits(r.CB)}
				}
				if !reflect.DeepEqual(w.Results, exact) {
					t.Errorf("%s: every answer resolved exactly, but it is not the exact top-k", name)
				}
			}
			for vn, view := range views {
				for _, workers := range []int{1, 3} {
					o := sh.opt
					o.Workers = workers
					got := goldenOf(name, view, k, o)
					if !reflect.DeepEqual(got.Results, w.Results) {
						t.Errorf("%s %s workers=%d: results diverge from the golden", name, vn, workers)
					}
					gotSt, wantSt := got, w
					gotSt.Results, wantSt.Results = nil, nil
					if !reflect.DeepEqual(gotSt, wantSt) {
						t.Errorf("%s %s workers=%d: stats diverge from the golden:\n got %+v\nwant %+v", name, vn, workers, gotSt, wantSt)
					}
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		out := append(append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...), "\n]\n"...)
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
