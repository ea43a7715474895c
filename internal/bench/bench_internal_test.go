package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tiny returns a configuration that finishes in well under a second per
// experiment, for unit-testing the harness plumbing itself.
func tiny(out *bytes.Buffer) Config {
	t := Quick(out)
	t.Datasets = []string{"ir"}
	t.Ks = []int{20}
	t.EffKs = []int{20}
	t.CaseKs = []int{10}
	t.Thetas = []float64{1.05}
	t.Threads = []int{2}
	t.Fractions = []float64{0.3}
	t.Updates = 30
	t.UpdateK = 20
	t.ScaleDS = "ir"
	t.ThetaDS = []string{"ir"}
	t.EffDS = []string{"ir"}
	return t
}

func TestTable1ReportsAllDatasets(t *testing.T) {
	var buf bytes.Buffer
	rows := Table1(tiny(&buf))
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for _, r := range rows {
		if r.Stats.N == 0 || r.Stats.M == 0 {
			t.Errorf("%s: empty stats", r.Name)
		}
	}
}

func TestTable2OptNeverComputesMore(t *testing.T) {
	var buf bytes.Buffer
	rows := Table2(tiny(&buf))
	for _, r := range rows {
		if r.OptComp > r.BaseComp {
			t.Errorf("%s k=%d: Opt computed %d > Base %d — Table II claim violated",
				r.Dataset, r.K, r.OptComp, r.BaseComp)
		}
		if r.OptComp < int64(r.K) {
			t.Errorf("%s k=%d: Opt computed %d < k", r.Dataset, r.K, r.OptComp)
		}
	}
}

func TestFig6OptWins(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig6(tiny(&buf))
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		// Both searches are one loop over the same kernel, and on tiny graphs
		// each run is sub-millisecond: a one-shot wall-clock ratio between
		// them measures the scheduler, not the algorithm. The deterministic
		// half of the paper's headline — Opt never computes more vertices
		// than Base — is TestTable2OptNeverComputesMore's.
		if r.OptTime <= 0 || r.BaseTime <= 0 {
			t.Errorf("%s k=%d: non-positive timings: Opt %v, Base %v",
				r.Dataset, r.K, r.OptTime, r.BaseTime)
		}
	}
}

func TestFig8LaziesRun(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig8(tiny(&buf))
	for _, r := range rows {
		if r.LocalInsert <= 0 || r.LazyInsert < 0 || r.LocalDelete <= 0 || r.LazyDelete < 0 {
			t.Errorf("%s: non-positive timings: %+v", r.Dataset, r)
		}
	}
}

func TestFig9CoversBothModes(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig9(tiny(&buf))
	modes := map[string]int{}
	for _, r := range rows {
		modes[r.Mode]++
	}
	if modes["edges"] == 0 || modes["vertices"] == 0 {
		t.Fatalf("missing sampling mode: %v", modes)
	}
}

func TestFig10ReportsBounds(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig10(tiny(&buf))
	if len(rows) != 2 { // 2 strategies × 1 thread count
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.SpeedupBound < 1 || r.Time <= 0 {
			t.Errorf("row %+v: bad bound or time", r)
		}
	}
}

func TestFig11OverlapInRange(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig11(tiny(&buf))
	for _, r := range rows {
		if r.Overlap < 0 || r.Overlap > 1 {
			t.Errorf("overlap %v out of range", r.Overlap)
		}
		if r.EBWTime > r.BWTime {
			t.Errorf("%s k=%d: TopEBW (%v) slower than TopBW (%v)",
				r.Dataset, r.K, r.EBWTime, r.BWTime)
		}
	}
}

func TestCaseStudyTables(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny(&buf)
	rows := Table4(cfg) // IR is the smaller case study
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	out := buf.String()
	if !strings.Contains(out, "Top-10 EBW") || !strings.Contains(out, "overlap") {
		t.Errorf("table output incomplete:\n%s", out)
	}
}

func TestRunDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", tiny(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := Run("nope", tiny(&buf)); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if buf.Len() == 0 {
		t.Fatal("no output written")
	}
}
