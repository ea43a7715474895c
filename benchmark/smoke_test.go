package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// The daemon is built once per test binary, into a directory TestMain
// removes.
var (
	daemonOnce sync.Once
	daemonDir  string
	daemonBin  string
	daemonErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if daemonDir != "" {
		os.RemoveAll(daemonDir)
	}
	os.Exit(code)
}

// smokeConfig returns a config for one smoke-scale run.
func smokeConfig(t *testing.T, w workload, trace bool) runConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("smoke runs start the daemon; skipped with -short")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	daemonOnce.Do(func() {
		if daemonDir, daemonErr = os.MkdirTemp("", "egobwd-smoke-"); daemonErr == nil {
			daemonBin = filepath.Join(daemonDir, "egobwd")
			daemonErr = buildDaemon(root, daemonBin)
		}
	})
	if daemonErr != nil {
		t.Fatal(daemonErr)
	}
	dir := t.TempDir()
	return runConfig{w: w, seed: 42, seconds: 0.3, sc: smokeScale, trace: trace, root: root, bin: daemonBin,
		work: filepath.Join(dir, "work"), traceOut: filepath.Join(dir, "trace.json")}
}

// Every workload, tracing off: every oracle passes and every end-to-end
// metric is a positive finite number, as the contract requires of each.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads {
		cfg := smokeConfig(t, w, false)
		res, err := execute(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failures=%v", w.Name, res.Correct, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			v, ok := res.Metrics[d.Name]
			if !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v, want a positive finite number", w.Name, d.Name, v)
			}
		}
		if _, err := os.Stat(cfg.work); !os.IsNotExist(err) {
			t.Errorf("%s: scratch directory left behind", w.Name)
		}
	}
}

// The traced run: every per-layer metric is reported, trace.json parses,
// children + residual equal the parent for the opt-miss read class and the
// durable write class, and the counts marked exact repeat for a seed.
func TestSmokeTraced(t *testing.T) {
	w, _ := findWorkload("collab")
	cfg := smokeConfig(t, w, true)
	first, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Correct {
		t.Fatalf("traced run incorrect: %v", first.Failures)
	}
	for _, d := range perLayer {
		if v, ok := first.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("per-layer metric %s = %v (reported %v)", d.Name, v, ok)
		}
	}
	b, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	if len(tf.Spans) == 0 || tf.Workload != w.Name {
		t.Fatalf("trace.json holds %d spans of workload %q", len(tf.Spans), tf.Workload)
	}
	seen := map[string]bool{}
	for _, c := range breakdown(tf.Spans) {
		seen[c.Class] = true
		if c.ChildNs+c.Residual != c.ParentNs {
			t.Errorf("class %s: children + residual != parent", c.Class)
		}
	}
	for _, class := range []string{"read.opt.miss", "write.durable", "lib.topk_exact"} {
		if !seen[class] {
			t.Errorf("trace has no op of class %s", class)
		}
	}

	second, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if d.Exact && first.Metrics[d.Name] != second.Metrics[d.Name] {
			t.Errorf("%s is marked exact but read %v then %v for one seed", d.Name, first.Metrics[d.Name], second.Metrics[d.Name])
		}
	}
}
