// Command benchmark is the repository's one repeatable benchmark: two
// named workloads (graph shapes) under four traffic stages, eleven
// end-to-end metrics with regression bounds, and a traced layer replay that
// yields the per-layer numbers. See README.md
// in this directory for the glossary and how to read the output.
//
//	go run -C benchmark . [-workload W[,W]] [-seed N] [-seconds S] [-trace]
//	                      [-smoke] [-repeat R] [-json out.json]
//	go run -C benchmark . -compare old.json new.json
//
// The benchmark contract's driver calls benchmark/run.sh, which builds
// this package and the daemon inside the checkout and passes
// --workload --seed --seconds --trace through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// normalizeArgs lets the boolean -trace also take the driver's separate
// value ("--trace 0", "--trace 1"), which package flag would otherwise
// read as the first positional argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// findRoot locates the checkout: the directory holding cmd/egobwd, which
// is the working directory under run.sh and its parent under `go run -C
// benchmark .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "egobwd", "main.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/egobwd not found in . or ..: run from the checkout root or with go run -C benchmark")
}

// realMain reports a usage or infrastructure error on standard error and
// returns the exit code: 0, 1 for a failed verification or regression, 2
// for an error before any result.
func realMain(args []string) int {
	code, err := benchmark(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	return code
}

func benchmark(args []string) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		names    = fs.String("workload", "", "workload name, or a comma-separated list run in that order (default: both)")
		seed     = fs.Uint64("seed", 1, "seed of graph generation, op scripts and edge choices")
		seconds  = fs.Float64("seconds", 0, "length of the measured phase (default 40, smoke 0.5)")
		trace    = fs.Bool("trace", false, "traced run: layer probes and replay, per-layer metrics, trace.json")
		smoke    = fs.Bool("smoke", false, "tiny graphs and short stages, about 3 s per workload")
		repeat   = fs.Int("repeat", 1, "runs per workload (seed, seed+1, ...); prints min/median/max and spread per metric")
		cmp      = fs.Bool("compare", false, "compare two -json files given as arguments: old.json new.json")
		jsonOut  = fs.String("json", "", "write every run to this file, for -compare")
		daemon   = fs.String("daemon", "", "prebuilt egobwd binary (default: build ./cmd/egobwd)")
		outDir   = fs.String("out", "", "directory for build output, scratch data and trace.json (default <checkout>/.bench_build)")
		traceOut = fs.String("trace-out", "", "path of trace.json (default <out>/trace-<workload>.json)")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2, nil // package flag has printed the error and the usage
	}
	if *cmp {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two files: old.json new.json")
		}
		oldF, err := readResults(fs.Arg(0))
		if err != nil {
			return 2, err
		}
		newF, err := readResults(fs.Arg(1))
		if err != nil {
			return 2, err
		}
		if compare(os.Stdout, oldF, newF) {
			return 1, nil
		}
		return 0, nil
	}

	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	if *seconds <= 0 {
		*seconds = runSeconds
		if *smoke {
			*seconds = 0.5
		}
	}
	var selected []workload
	if *names == "" {
		selected = workloads
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w, ok := findWorkload(n)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", n)
		}
		selected = append(selected, w)
	}

	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	if *outDir == "" {
		*outDir = filepath.Join(root, ".bench_build")
	}
	if *daemon == "" {
		*daemon = filepath.Join(*outDir, "bin", "egobwd")
		if err := buildDaemon(root, *daemon); err != nil {
			return 2, err
		}
	}
	bin, err := filepath.Abs(*daemon)
	if err != nil {
		return 2, err
	}

	rf := resultFile{Scale: sc.name, Seconds: *seconds}
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			cfg := runConfig{w: w, seed: *seed + uint64(i), seconds: *seconds, sc: sc, trace: *trace,
				root: root, bin: bin,
				work:     filepath.Join(*outDir, fmt.Sprintf("run-%d", os.Getpid())),
				traceOut: *traceOut}
			if cfg.traceOut == "" {
				cfg.traceOut = filepath.Join(*outDir, "trace-"+w.Name+".json")
			}
			res, err := execute(cfg)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.Name, err)
			}
			rf.Runs = append(rf.Runs, res)
			printRun(os.Stdout, res)
			if res.Trace {
				fmt.Printf("  trace written to %s\n", cfg.traceOut)
			}
			if err := printContract(res); err != nil {
				return 1, err
			}
		}
	}
	if *repeat > 1 && !*trace {
		printRepeat(os.Stdout, rf)
		// Keep the contract: the last line is the last run's result.
		if err := printContract(rf.Runs[len(rf.Runs)-1]); err != nil {
			return 1, err
		}
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, rf); err != nil {
			return 1, err
		}
	}
	return exitCode(rf.Runs), nil
}

// printContract prints the run's result as the contract's one-line JSON.
func printContract(res *runResult) error {
	line, err := json.Marshal(contractOf(res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// exitCode is non-zero as soon as one run failed a verification.
func exitCode(runs []*runResult) int {
	for _, r := range runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
