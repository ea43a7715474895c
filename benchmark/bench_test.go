package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/ego"
	"repro/internal/paperex"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	// Two kinds in a 60/40 mix: the pooled median (2) sits in the cheap
	// kind's tail; the mix of the medians is 0.6*1 + 0.4*10.
	if got := mixedMedian([]float64{1, 1, 2}, []float64{10, 10}, 0.6); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("mixedMedian = %v, want 4.6", got)
	}
	// 100 samples: p99 is the 99th smallest, one sample beyond it.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestScriptIsDeterministicForASeed(t *testing.T) {
	g := smokeScale.collab(3)
	script := func(seed uint64) ([]readOp, []writeBatchOp, []edge) {
		rng := stageRNG(seed, stageRead)
		reads := append(churnBlock(rng, g.NumVertices()), churnBlock(rng, g.NumVertices())...)
		mdl := newModel(g)
		wr := stageRNG(seed, stageWrite)
		var batches []writeBatchOp
		for i := 0; i < 40; i++ {
			batches = append(batches, mdl.nextWriteBatch(wr, writeBatch, 0.5))
		}
		return reads, batches, mdl.edges()
	}
	r1, b1, e1 := script(7)
	r2, b2, e2 := script(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(e1, e2) {
		t.Fatal("same seed produced different scripts")
	}
	r3, b3, _ := script(8)
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(b1, b3) {
		t.Fatal("different seeds produced the same script")
	}
	var perClass [numReadClasses]int
	for _, op := range r1[:churnBlockSize] {
		perClass[op.class]++
	}
	if perClass != [numReadClasses]int{84, 5, 3, 8} {
		t.Errorf("block mix = %v, want [84 5 3 8]", perClass)
	}
}

func TestModelKeepsInsertsNewAndDeletesLive(t *testing.T) {
	g := smokeScale.powerlaw(5)
	mdl := newModel(g)
	live := map[uint64]bool{}
	for _, k := range mdl.live {
		live[k] = true
	}
	rng := newRand(5)
	sawDelete := false
	for i := 0; i < 200; i++ {
		b := mdl.nextWriteBatch(rng, readWriteBatch, 0.5)
		for _, e := range b.edges {
			k := edgeKey(e[0], e[1])
			switch {
			case e[0] == e[1]:
				t.Fatalf("batch %d: self loop %v", i, e)
			case b.insert && live[k]:
				t.Fatalf("batch %d inserts live edge %v", i, e)
			case !b.insert && !live[k]:
				t.Fatalf("batch %d deletes dead edge %v", i, e)
			}
			live[k] = b.insert
			if !b.insert {
				delete(live, k)
				sawDelete = true
			}
		}
	}
	if !sawDelete {
		t.Error("200 batches without one delete batch")
	}
	if len(live) != len(mdl.live) {
		t.Errorf("model holds %d live edges, replay of its batches %d", len(mdl.live), len(live))
	}
	if got := mdl.graph().NumEdges(); got != int64(len(live)) {
		t.Errorf("model graph has %d edges, want %d", got, len(live))
	}
}

func TestSpanSelfTimeArithmetic(t *testing.T) {
	// One read op down the twins: http 100, registry 80, search 70, kernel 20.
	// One op with a child slower than its parent (noise between twins).
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Class: "read.opt.miss", Name: "server.http", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Op: 1, Class: "read.opt.miss", Name: "server.registry", StartNs: 100, EndNs: 180},
		{ID: 3, Parent: 2, Op: 1, Class: "read.opt.miss", Name: "ego.search", StartNs: 180, EndNs: 250},
		{ID: 4, Parent: 3, Op: 1, Class: "read.opt.miss", Name: "ego.kernel", StartNs: 250, EndNs: 270},
		{ID: 5, Parent: 0, Op: 2, Class: "read.hot.hit", Name: "server.http", StartNs: 300, EndNs: 310},
		{ID: 6, Parent: 5, Op: 2, Class: "read.hot.hit", Name: "server.registry", StartNs: 310, EndNs: 322},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 10, 3: 50, 4: 20, 5: -2, 6: 12}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	for _, c := range breakdown(spans) {
		if c.ChildNs+c.Residual != c.ParentNs {
			t.Errorf("%s: children %d + residual %d != parent %d", c.Class, c.ChildNs, c.Residual, c.ParentNs)
		}
		var selfSum int64
		for _, r := range c.Rows {
			selfSum += r.SelfNs
		}
		if selfSum != c.ParentNs {
			t.Errorf("%s: self times sum to %d, parent is %d", c.Class, selfSum, c.ParentNs)
		}
		if c.Class == "read.opt.miss" && (c.ParentNs != 100 || c.ChildNs != 70 || c.Residual != 30) {
			t.Errorf("read.opt.miss: parent %d children %d residual %d, want 100 70 30", c.ParentNs, c.ChildNs, c.Residual)
		}
	}
	if got := selfMedianUs(spans, "server.http", "read."); math.Abs(got-0.009) > 1e-12 {
		t.Errorf("median http self = %v us, want 0.009", got)
	}
}

// The paper's Fig. 1 graph with the values its examples state: the oracle
// accepts the true answer and rejects a corrupted one, and a rejected
// answer makes the run incorrect and the command exit non-zero.
func TestOracleOnPaperExample(t *testing.T) {
	g := paperex.New()
	tr := newTruth(g)
	for v, want := range paperex.CB {
		if !closeScore(tr.all[v], want) {
			t.Fatalf("reference CB(%s) = %v, the paper states %v", paperex.Names[v], tr.all[v], want)
		}
	}
	top, _ := ego.OptBSearch(g, 5, defaultTheta)
	c := &checker{}
	if !tr.checkTopK(c, "paper top-5", top, 5) || c.failed() != 0 {
		t.Fatalf("true top-5 rejected: %v", c.failures)
	}
	for i, v := range paperex.Top5 {
		if top[i].V != v {
			t.Errorf("top-5 rank %d is %s, the paper says %s", i, paperex.Names[top[i].V], paperex.Names[v])
		}
	}
	verifyLibrary(c, g, tr, []int{1, 5, 16}, []int{1, 5, 16})
	if c.failed() != 0 {
		t.Fatalf("library oracle fails on the paper example: %v", c.failures)
	}

	corruptions := map[string]func([]ego.Result) []ego.Result{
		"score off by 1e-6": func(r []ego.Result) []ego.Result { r[2].CB += 1e-6; return r },
		"wrong vertex":      func(r []ego.Result) []ego.Result { r[4].V = paperex.A; return r },
		"repeated vertex":   func(r []ego.Result) []ego.Result { r[1] = r[0]; return r },
		"short answer":      func(r []ego.Result) []ego.Result { return r[:4] },
	}
	for name, corrupt := range corruptions {
		bad := &checker{}
		if tr.checkTopK(bad, name, corrupt(append([]ego.Result(nil), top...)), 5) || bad.failed() == 0 {
			t.Errorf("corrupted answer (%s) passed the oracle", name)
		}
		res := &runResult{Failed: bad.failed()}
		res.Correct = res.Failed == 0
		if exitCode([]*runResult{{Correct: true}, res}) == 0 {
			t.Errorf("corrupted answer (%s) would exit 0", name)
		}
	}
	scores := append([]float64(nil), tr.all...)
	scores[paperex.F] -= 0.5
	bad := &checker{}
	if tr.checkScores(bad, "corrupted scores", scores) {
		t.Error("corrupted score vector passed the oracle")
	}
}

func TestApproxOracleRejectsBadEstimates(t *testing.T) {
	g := smokeScale.collab(2)
	tr := newTruth(g)
	exact := ego.TopKOfScores(tr.all, 100)
	if q := tr.approxQuality(exact, 100, 0.05); q.recall != 1 || q.within != 1 {
		t.Fatalf("exact answer scores recall %v within %v", q.recall, q.within)
	}
	low := ego.TopKOfScores(tr.all, len(tr.all))[len(tr.all)-100:]
	c := &checker{}
	if tr.checkApprox(c, "bottom-100 as top-100", low, 100, 0.05, 0.95); c.failed() == 0 {
		t.Error("the 100 lowest vertices passed as an approximate top-100")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "collab", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "collab", "--seed", "3", "--seconds", "10", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	got = normalizeArgs([]string{"-trace", "-smoke"})
	if !reflect.DeepEqual(got, []string{"-trace", "-smoke"}) {
		t.Errorf("bare -trace was rewritten: %v", got)
	}
}

func TestContractLineHasExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &runResult{Trace: traced, Metrics: metrics{"setup_s": 1.5, "graph.build_ms": 2.5}, Attempted: 3}
		b, err := json.Marshal(contractOf(res))
		if err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(b, &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var ms map[string]contractMetric
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(ms) != len(defs) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(ms), len(defs))
		}
		for _, d := range defs {
			if ms[d.Name].Unit != d.Unit {
				t.Errorf("metric %s: unit %q, want %q", d.Name, ms[d.Name].Unit, d.Unit)
			}
		}
	}
}

// benchmarkJSON is BENCHMARK.json as spec.go defines it.
func benchmarkJSON() map[string]any {
	type m = map[string]any
	var wl, e2e, layers []m
	for _, w := range workloads {
		wl = append(wl, m{"name": w.Name, "why": w.Why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, m{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Bound})
	}
	for _, d := range perLayer {
		layers = append(layers, m{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	return m{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   wl,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestBenchmarkJSON -update to write it)", err)
	}
	var a, b any
	if err := json.Unmarshal(got, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("BENCHMARK.json differs from spec.go; run go test -run TestBenchmarkJSON -update")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(got))
	}
}

// The limits the benchmark contract puts on names, units, whys and counts.
func TestSpecRespectsContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's name rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: outside the contract's counts", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || len(w.Why) == 0 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the contract's unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > endToEnd[0].Bound {
			t.Errorf("metric %s: bound %v above setup_s's, which must be the largest", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}
