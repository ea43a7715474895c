package bench

import (
	"fmt"

	"repro/internal/brandes"
	"repro/internal/dataset"
	"repro/internal/ego"
	"repro/internal/graph"
)

// Table1Row pairs a dataset's analog statistics with the paper's originals.
type Table1Row struct {
	Name  string
	Stats graph.Stats
	Info  dataset.Info
}

// Table1 prints the dataset statistics table (paper Table I), showing the
// analog's n/m/dmax next to the original's.
func Table1(cfg Config) []Table1Row {
	fmt.Fprintf(cfg.Out, "%-12s %10s %10s %8s %8s | %12s %12s %9s\n",
		"Dataset", "n", "m", "dmax", "avgdeg", "paper-n", "paper-m", "paper-dmax")
	var rows []Table1Row
	for _, name := range dataset.Names() {
		info, _ := dataset.Describe(name)
		st := graph.ComputeStats(dataset.MustLoad(name))
		rows = append(rows, Table1Row{Name: name, Stats: st, Info: info})
		fmt.Fprintf(cfg.Out, "%-12s %10d %10d %8d %8.2f | %12d %12d %9d\n",
			name, st.N, st.M, st.DMax, st.AvgDeg, info.PaperN, info.PaperM, info.PaperDMax)
	}
	return rows
}

// Table2Row reports exact-computation counts for one dataset and k.
type Table2Row struct {
	Dataset  string
	K        int
	BaseComp int64
	OptComp  int64
}

// Table2 prints the number of vertices computed exactly by BaseBSearch and
// OptBSearch (paper Table II). The paper's claim: OptBS computes strictly
// fewer vertices on every dataset and k.
func Table2(cfg Config) []Table2Row {
	fmt.Fprintf(cfg.Out, "%-12s %8s %10s %10s\n", "Dataset", "k", "BaseBS", "OptBS")
	var rows []Table2Row
	for _, name := range cfg.Datasets {
		g := dataset.MustLoad(name)
		for _, k := range cfg.Ks {
			_, bst := ego.BaseBSearch(g, k)
			_, ost := ego.OptBSearch(g, k, ego.DefaultTheta)
			rows = append(rows, Table2Row{Dataset: name, K: k, BaseComp: bst.Computed, OptComp: ost.Computed})
			fmt.Fprintf(cfg.Out, "%-12s %8d %10d %10d\n", name, k, bst.Computed, ost.Computed)
		}
	}
	return rows
}

// ScholarRow is one line of the Table III/IV case-study tables.
type ScholarRow struct {
	EBWName string
	EBWDeg  int32
	EBW     float64
	EBWBoth bool // also in the BW top-10 (the paper's '*')
	BWName  string
	BWDeg   int32
	BW      float64
	BWBoth  bool
}

// caseStudyTable builds the paper's side-by-side top-10 table for one
// case-study dataset: the ten highest ego-betweenness "scholars" next to
// the ten highest betweenness ones, with overlap marked.
func caseStudyTable(cfg Config, name string) []ScholarRow {
	g := dataset.MustLoad(name)
	ebw, _ := ego.OptBSearch(g, 10, ego.DefaultTheta)
	bw := brandes.TopK(g, 10, 0)
	inEBW := map[int32]bool{}
	for _, r := range ebw {
		inEBW[r.V] = true
	}
	inBW := map[int32]bool{}
	for _, r := range bw {
		inBW[r.V] = true
	}
	fmt.Fprintf(cfg.Out, "%-28s %5s %12s | %-28s %5s %14s\n",
		"Top-10 EBW", "d", "CB", "Top-10 BW", "d", "BT")
	rows := make([]ScholarRow, 0, 10)
	for i := range ebw {
		e, b := ebw[i], bw[i]
		row := ScholarRow{
			EBWName: dataset.ScholarName(e.V), EBWDeg: g.Degree(e.V), EBW: e.CB, EBWBoth: inBW[e.V],
			BWName: dataset.ScholarName(b.V), BWDeg: g.Degree(b.V), BW: b.CB, BWBoth: inEBW[b.V],
		}
		rows = append(rows, row)
		fmt.Fprintf(cfg.Out, "%s%-27s %5d %12.1f | %s%-27s %5d %14.1f\n",
			star(row.EBWBoth), row.EBWName, row.EBWDeg, row.EBW,
			star(row.BWBoth), row.BWName, row.BWDeg, row.BW)
	}
	overlap := ego.Overlap(ebw, bw)
	fmt.Fprintf(cfg.Out, "top-10 overlap: %.0f%%  (paper: 80%% on DB, 90%% on IR)\n", overlap*100)
	return rows
}

func star(b bool) string {
	if b {
		return "*"
	}
	return " "
}

// Table3 reproduces the DB case-study table (paper Table III).
func Table3(cfg Config) []ScholarRow { return caseStudyTable(cfg, dataset.DB) }

// Table4 reproduces the IR case-study table (paper Table IV).
func Table4(cfg Config) []ScholarRow { return caseStudyTable(cfg, dataset.IR) }
