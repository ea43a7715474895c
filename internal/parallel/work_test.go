package parallel

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/approx"
	"repro/internal/ego"
	"repro/internal/gen"
	"repro/internal/graph"
)

var updateWork = flag.Bool("update", false, "rewrite testdata/work.json from the current implementation")

const workPath = "testdata/work.json"

// workLine is one entry of the work record: a search's SearchStats, a
// sweep's TotalWork and MaxUnitWork, or an approx query's work counts.
type workLine struct {
	Case        string           `json:"case"`
	Search      *ego.SearchStats `json:"search,omitempty"`
	TotalWork   int64            `json:"total_work,omitempty"`
	MaxUnitWork int64            `json:"max_unit_work,omitempty"`
	Approx      *approxWork      `json:"approx,omitempty"`
}

// approxWork is approx.Stats without its achieved ε, which is an accuracy
// figure rather than a work count.
type approxWork struct {
	Candidates, Escalations         int
	Exact, Sampled, Pruned, Samples int64
}

// workRecord measures the work the searches and the sweeps do on two seeded
// graphs: OptBSearch (θ = DefaultTheta) and BaseBSearch at k = 10 and 100,
// ComputeAll under both strategies at 1, 2 and 4 workers, and approx.TopK
// (default options, one worker) at k = 10 and 100. Every count is a pure
// function of the graph and the arguments.
func workRecord() []workLine {
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"powerlaw", gen.ChungLu(3000, 2.2, 5.3, 300, 11)},
		{"collab", gen.Affiliation(2000, 1000, 5.5, 1, 9)},
	}
	var rec []workLine
	for _, sh := range shapes {
		for _, k := range []int{10, 100} {
			_, opt := ego.OptBSearch(sh.g, k, ego.DefaultTheta)
			_, base := ego.BaseBSearch(sh.g, k)
			rec = append(rec,
				workLine{Case: fmt.Sprintf("%s/opt/k=%d", sh.name, k), Search: &opt},
				workLine{Case: fmt.Sprintf("%s/base/k=%d", sh.name, k), Search: &base})
		}
		for _, strat := range []Strategy{VertexPEBW, EdgePEBW} {
			for _, threads := range []int{1, 2, 4} {
				_, st := ComputeAll(sh.g, threads, strat)
				rec = append(rec, workLine{
					Case:      fmt.Sprintf("%s/%v/t=%d", sh.name, strat, threads),
					TotalWork: st.TotalWork, MaxUnitWork: st.MaxUnitWork,
				})
			}
		}
		for _, k := range []int{10, 100} {
			_, st := approx.TopK(sh.g, k, approx.Options{Workers: 1})
			rec = append(rec, workLine{
				Case: fmt.Sprintf("%s/approx/k=%d", sh.name, k),
				Approx: &approxWork{
					Candidates: st.Candidates, Escalations: st.Escalations,
					Exact: st.Exact, Sampled: st.Sampled, Pruned: st.Pruned, Samples: st.Samples,
				},
			})
		}
	}
	return rec
}

// TestWorkGolden holds the searches' and the sweeps' work to the record in
// testdata/work.json, so a change to how work is scheduled shows up as a
// changed count. -update rewrites the record: only when the work is meant
// to change.
func TestWorkGolden(t *testing.T) {
	rec := workRecord()
	lines := make([][]byte, len(rec))
	for i, l := range rec {
		var err error
		if lines[i], err = json.Marshal(l); err != nil {
			t.Fatal(err)
		}
	}
	if *updateWork {
		out := append(append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...), "\n]\n"...)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%d recorded entries, %d measured (rerun with -update)", len(want), len(lines))
	}
	for i := range lines {
		if !bytes.Equal(want[i], lines[i]) {
			t.Errorf("work diverges from the record:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}
