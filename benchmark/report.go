package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// resultFile is what -json writes and -compare reads: every run of one
// invocation, so spreads can be recomputed later.
type resultFile struct {
	Scale   string       `json:"scale"`
	Seconds float64      `json:"seconds"`
	Runs    []*runResult `json:"runs"`
}

func writeResults(path string, rf resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// contractLine is the last line of standard output: exactly the keys the
// benchmark contract names.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractOf(res *runResult) contractLine {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	cl := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractMetric, len(defs))}
	for _, d := range defs {
		cl.Metrics[d.Name] = contractMetric{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	return cl
}

func printEnv(w io.Writer, e envInfo) {
	fmt.Fprintf(w, "env: nproc=%d gomaxprocs(generator)=%d gomaxprocs(daemon)=%d %s commit=%s kernel=%s store.fsync_probe_us=%.1f\n",
		e.NProc, e.GOMAXPROCS, e.DaemonGOMAXPROCS, e.GoVersion, e.Commit, e.Kernel, e.FsyncProbeUS)
}

// printRun prints every metric of one run by name with its unit and the
// sample count behind it.
func printRun(w io.Writer, res *runResult) {
	mode := "end-to-end (tracing off)"
	if res.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  scale=%s  %s  wall=%.1fs\n", res.Workload, res.Seed, res.Scale, mode, res.WallS)
	printEnv(w, res.Env)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("  %-40s %14.4f %-8s", d.Name, res.Metrics[d.Name], d.Unit)
		if n, ok := res.Samples[d.Name]; ok {
			line += fmt.Sprintf(" n=%d", n)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  [bound %.0f%%]", 100*d.Bound)
		}
		fmt.Fprintln(w, line)
	}
	if len(res.Extra) > 0 {
		fmt.Fprintln(w, "  -- same run, per-layer numbers from the live daemon (not gated)")
		units := map[string]string{}
		for _, d := range perLayer {
			units[d.Name] = d.Unit
		}
		for _, k := range sortedKeys(res.Extra) {
			fmt.Fprintf(w, "  %-40s %14.4f %-8s\n", k, res.Extra[k], units[k])
		}
	}
	if res.Trace {
		printBreakdown(w, res.breakdown)
	}
	fmt.Fprintf(w, "  ops_attempted=%d ops_failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method) — the
// driver's acceptance measure.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// summary is one (workload, metric) over the runs of a file.
type summary struct {
	min, med, max float64
	rangeSpread   float64 // (max-min)/median
	iqrSpread     float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sm := summary{min: s[0], med: median(s), max: s[len(s)-1]}
	sm.rangeSpread = ratio(sm.max-sm.min, sm.med)
	sm.iqrSpread = quartileSpread(s)
	return sm
}

// byWorkload groups a file's untraced runs: workload -> metric -> values.
func byWorkload(rf resultFile) (map[string]map[string][]float64, map[string][2]int) {
	vals := map[string]map[string][]float64{}
	ops := map[string][2]int{} // attempted, failed
	for _, r := range rf.Runs {
		if r.Trace {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for k, v := range r.Metrics {
			vals[r.Workload][k] = append(vals[r.Workload][k], v)
		}
		o := ops[r.Workload]
		ops[r.Workload] = [2]int{o[0] + r.Attempted, o[1] + r.Failed}
	}
	return vals, ops
}

// printRepeat prints, per metric, min/median/max over the repeats and both
// spreads: (max-min)/median, and the driver's quartile spread.
func printRepeat(w io.Writer, rf resultFile) {
	vals, _ := byWorkload(rf)
	for _, wl := range workloads {
		ms, ok := vals[wl.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n== %s: %d runs\n", wl.Name, len(ms["setup_s"]))
		fmt.Fprintf(w, "  %-24s %-8s %12s %12s %12s %10s %10s %7s\n", "metric", "unit", "min", "median", "max", "range/med", "iqr/med", "bound")
		for _, d := range endToEnd {
			s := summarize(ms[d.Name])
			note := ""
			if s.iqrSpread > d.Bound/3 && d.Name != "setup_s" {
				note = "  spread above a third of the bound"
			}
			fmt.Fprintf(w, "  %-24s %-8s %12.4f %12.4f %12.4f %9.1f%% %9.1f%% %6.0f%%%s\n",
				d.Name, d.Unit, s.min, s.med, s.max, 100*s.rangeSpread, 100*s.iqrSpread, 100*d.Bound, note)
		}
	}
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative means better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compare prints one row per (workload, metric) of two result files and
// reports whether new regressed: a median worse than old's by more than
// the metric's bound, with both recorded spreads inside the bound. A worse
// median whose spread exceeds the bound is unresolved, not a regression.
func compare(w io.Writer, oldF, newF resultFile) (regressed bool) {
	oldV, oldOps := byWorkload(oldF)
	newV, newOps := byWorkload(newF)
	fmt.Fprintf(w, "%-20s %-22s %12s %12s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		if oldV[wl.Name] == nil || newV[wl.Name] == nil {
			continue
		}
		for _, d := range endToEnd {
			a, b := summarize(oldV[wl.Name][d.Name]), summarize(newV[wl.Name][d.Name])
			by := worseBy(d, a.med, b.med)
			verdict := ""
			switch {
			case by > d.Bound && (a.rangeSpread > d.Bound || b.rangeSpread > d.Bound):
				verdict = fmt.Sprintf("unresolved (spread old %.0f%% new %.0f%%)", 100*a.rangeSpread, 100*b.rangeSpread)
			case by > d.Bound:
				verdict = "REGRESSION"
				regressed = true
			case by < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-20s %-22s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", wl.Name, d.Name, a.med, b.med, 100*by, 100*d.Bound, verdict)
		}
		oo, no := oldOps[wl.Name], newOps[wl.Name]
		oldShare, newShare := ratio(float64(oo[1]), float64(oo[0])), ratio(float64(no[1]), float64(no[0]))
		verdict := ""
		if newShare > oldShare {
			verdict = "MORE FAILURES"
			regressed = true
		}
		fmt.Fprintf(w, "%-20s %-22s %12.6f %12.6f %25s\n", wl.Name, "failed share", oldShare, newShare, verdict)
	}
	return regressed
}

// sortedKeys lists a metrics map's names in order, for printing.
func sortedKeys(m metrics) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
