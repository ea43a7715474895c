package main

import (
	"repro/internal/gen"
	"repro/internal/graph"
)

// The names in this file are the benchmark's contract with later PRs:
// BENCHMARK.json lists exactly these workloads and metrics (spec_test.go
// checks the two stay in step) and issues cite them verbatim.

// stage is one of the four traffic shapes a run is made of. Every workload
// runs all four on its own graph, in time slices that alternate through the
// whole measured phase, so each metric's samples span the run and a slow
// spell of the host shifts every median a little instead of one by a lot.
type stage int

const (
	stageLib     stage = iota // in-process library rounds, 1 caller, closed loop
	stageRead                 // in-memory daemon: closed-loop reader + paced writer
	stageWrite                // durable daemon: closed-loop writer + paced reader
	stageRecover              // SIGKILL/restart cycles on a second durable daemon
)

// workload is one named input: a graph shape under all four stages.
type workload struct {
	Name string // also the shape: "collab" or "powerlaw"
	Why  string // one line, copied into BENCHMARK.json
}

var workloads = []workload{
	{
		Name: "collab",
		Why:  "Clique-heavy affiliation graph: pruning works, so search orchestration (not the kernels) dominates exact top-k and the recompute reads; lazy maintenance beats local.",
	},
	{
		Name: "powerlaw",
		Why:  "Chung-Lu hubs: top-k kernels dominate OptBSearch, pruning buys nothing, lazy maintenance is slower than local, hub endpoints tax the write path; a gain on collab that costs hubs shows here.",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef describes one reported number. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool // a count that is deterministic for a seed and must repeat exactly
}

// endToEnd is what a user of the system sees; README.md says what each one
// measures and which stage owns it. Timings are medians over all samples of
// that stage. Every bound is the contract's cap: on the 2-core shared host
// this was sized on, the quartile spread of ten runs of the same code is 2 to
// 7 % of the median on a quiet host and up to 15 % on a busy one, and the
// contract wants it below a third of the bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "topk_exact_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "topk_approx_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "compute_all_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "update_local_p50_us", Unit: "us/edge", Better: "lower", Bound: 0.25},
	{Name: "reads_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "write_ack_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recover_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is the traced run's output, one prefix per package. Counts
// marked (=) in the README are deterministic for a seed.
var perLayer = []metricDef{
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.relabel_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.publish_us", Unit: "us", Better: "lower"},
	{Name: "graph.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.overlay_read_tax_x", Unit: "x", Better: "lower"},
	{Name: "graph.scores_copied_per_batch", Unit: "count", Better: "lower"},
	{Name: "graph.overlay_depth_end", Unit: "count", Better: "lower"},

	{Name: "ego.opt.k10_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.opt.k100_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.opt.k1000_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.opt.relabeled_k100_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.base.k100_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.compute_all_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.opt.computed", Unit: "count", Better: "lower", Exact: true},
	{Name: "ego.opt.pruned", Unit: "count", Better: "higher", Exact: true},
	{Name: "ego.opt.reinserted", Unit: "count", Better: "lower", Exact: true},
	{Name: "ego.opt.bound_refreshes", Unit: "count", Better: "lower", Exact: true},
	{Name: "ego.opt.edges_processed", Unit: "count", Better: "lower", Exact: true},
	{Name: "ego.opt.credit_ops", Unit: "count", Better: "lower", Exact: true},
	{Name: "ego.base.computed", Unit: "count", Better: "lower", Exact: true},
	{Name: "ego.opt.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ego.kernel.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "ego.opt.overhead_x", Unit: "x", Better: "lower"},
	{Name: "ego.kernel.sample_us", Unit: "us", Better: "lower"},
	{Name: "ego.topk_of_us", Unit: "us", Better: "lower"},
	{Name: "ego.opt.overlay_ms", Unit: "ms", Better: "lower"},

	{Name: "nbr.edge_pass_ns", Unit: "ns", Better: "lower"},
	{Name: "nbr.edge_pass_common", Unit: "count", Better: "lower", Exact: true},
	{Name: "nbr.hub_pair_ns", Unit: "ns", Better: "lower"},
	{Name: "nbr.hub_word_ns", Unit: "ns", Better: "lower"},

	{Name: "parallel.edge_2w_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.vertex_2w_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.edge_bound_2w", Unit: "x", Better: "higher", Exact: true},
	{Name: "parallel.vertex_bound_2w", Unit: "x", Better: "higher", Exact: true},

	{Name: "approx.k100_ms", Unit: "ms", Better: "lower"},
	{Name: "approx.samples", Unit: "count", Better: "lower", Exact: true},
	{Name: "approx.candidates", Unit: "count", Better: "lower", Exact: true},
	{Name: "approx.exact", Unit: "count", Better: "lower", Exact: true},
	{Name: "approx.pruned", Unit: "count", Better: "higher", Exact: true},
	{Name: "approx.eps_achieved", Unit: "ratio", Better: "lower"},
	{Name: "approx.recall_at_100", Unit: "ratio", Better: "higher"},
	{Name: "approx.overlay_k_ms", Unit: "ms", Better: "lower"},

	{Name: "dynamic.build_local_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.build_lazy_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.local.insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.local.delete_p50_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.local.update_p99_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.local.touched_pairs_per_update", Unit: "count", Better: "lower", Exact: true},
	{Name: "dynamic.local.affected_per_update", Unit: "count", Better: "lower", Exact: true},
	{Name: "dynamic.apply_us_per_edge", Unit: "us/edge", Better: "lower"},
	{Name: "dynamic.lazy.edge_p50_us", Unit: "us/edge", Better: "lower"},
	{Name: "dynamic.lazy.insert_p50_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.lazy.delete_p50_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.lazy.results_p50_us", Unit: "us", Better: "lower"},
	{Name: "dynamic.lazy.recomputed_per_update", Unit: "count", Better: "lower", Exact: true},
	{Name: "dynamic.lazy.stale_marked_per_update", Unit: "count", Better: "lower", Exact: true},
	{Name: "dynamic.lazy.swaps", Unit: "count", Better: "lower", Exact: true},
	{Name: "dynamic.import_state_ms", Unit: "ms", Better: "lower"},

	{Name: "store.fsync_probe_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_batch", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.state_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.snapshot_bytes", Unit: "bytes", Better: "lower"},
	{Name: "store.disk_bytes_per_edge", Unit: "bytes", Better: "lower"},
	{Name: "store.recover_open_ms", Unit: "ms", Better: "lower"},

	{Name: "server.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.group.mean_batches", Unit: "count", Better: "higher"},
	{Name: "server.write_rejects", Unit: "count", Better: "lower"},
	{Name: "server.compactions", Unit: "count", Better: "lower"},
	{Name: "server.checkpoints", Unit: "count", Better: "lower"},
	{Name: "server.http.read_self_us", Unit: "us", Better: "lower"},
	{Name: "server.http.write_self_us", Unit: "us", Better: "lower"},
	{Name: "server.registry.hit_us", Unit: "us", Better: "lower"},
	{Name: "server.registry.miss_self_us", Unit: "us", Better: "lower"},
	{Name: "server.registry.write_self_us", Unit: "us", Better: "lower"},
	{Name: "server.recover_ms", Unit: "ms", Better: "lower"},

	{Name: "client.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.late_writer_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_under_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_hot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_opt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_approx_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_vertex_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_paced_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_stall_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_ack_max_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// scale sizes the graphs and the run's schedule. The full scale is the one
// BENCHMARK.json runs; smoke keeps `go test` and a quick look cheap.
type scale struct {
	name string

	collab   func(seed uint64) *graph.Graph
	powerlaw func(seed uint64) *graph.Graph

	setups          int     // cold set-ups per run; setup_s is their median
	slices          int     // time slices the measured phase alternates the stages in
	recoverPerSlice int     // SIGKILL cycles per slice; recover_p50_ms is the median of all
	traceSeconds    float64 // measured phase of a traced run, which needs the live stages only for /stats deltas and client classes
	libTraceRounds  int     // lib rounds of a traced run, run twice: untraced, then traced
	vertexChecks    int     // vertex lookups per quiescence check
	replayBlocks    int     // churn blocks (100 reads each) in the traced serve replay
	replayWrites    int     // write batches in the traced serve replay
	hubs            int     // highest-degree vertices in the nbr hub kernels

	// baseKs are the k for which BaseBSearch joins the oracle of an untraced
	// run, as a library call and as algo=base. One call costs seconds on a
	// full-size hub graph, which the run-time cap cannot pay on every run:
	// at full scale only the traced run checks it (k=100, timed as
	// ego.base.k100_ms); the smoke scale checks every k everywhere.
	baseKs []int
}

var fullScale = scale{
	name:            "full",
	collab:          func(seed uint64) *graph.Graph { return gen.Affiliation(16000, 8000, 5.5, 1, seed) },
	powerlaw:        func(seed uint64) *graph.Graph { return gen.ChungLu(20000, 2.2, 5.3, 800, seed) },
	setups:          5,
	slices:          8,
	recoverPerSlice: 3,
	traceSeconds:    6,
	libTraceRounds:  3,
	vertexChecks:    32,
	replayBlocks:    1,
	replayWrites:    96,
	hubs:            64,
}

var smokeScale = scale{
	name:            "smoke",
	collab:          func(seed uint64) *graph.Graph { return gen.Affiliation(1200, 600, 5.5, 1, seed) },
	powerlaw:        func(seed uint64) *graph.Graph { return gen.ChungLu(1500, 2.2, 5.3, 120, seed) },
	setups:          1,
	slices:          2,
	recoverPerSlice: 1,
	traceSeconds:    0.3,
	libTraceRounds:  2,
	vertexChecks:    8,
	replayBlocks:    1,
	replayWrites:    20,
	hubs:            16,
	baseKs:          []int{10, 100, 1000},
}

func (s scale) graph(shape string, seed uint64) *graph.Graph {
	if shape == "powerlaw" {
		return s.powerlaw(seed)
	}
	return s.collab(seed)
}

// runSeconds is BENCHMARK.json's run_seconds: the length of the measured
// phase the driver asks for. With the set-ups and oracles around it a run
// takes 50 to 55 s on the 2-core host this was sized on, which keeps the
// driver's 48 runs and two builds inside its 3420 s.
const runSeconds = 40

// Shares of the measured phase. The SIGKILL cycles are a count, not a
// share (slices x recoverPerSlice); they take what is left, about a tenth.
const (
	libShare   = 0.3
	readShare  = 0.3
	writeShare = 0.3
)

// Fixed traffic parameters of the serve stages (ISSUE 11's table).
const (
	lazyK = 100
	// libUpdates inserts, then as many deletes, on the Maintainer per lib
	// round. A delete of a uniformly drawn live edge costs anything from 1 to
	// 500 us on the hub graph, so the median needs thousands of samples to sit
	// still; with 64 per half it moved by a tenth between seeds. The LazyTopK
	// gets lazyUpdates of each, from a stream of its own: there a round of 256
	// costs 0.8 s on the hub graph, as much as the round's searches together.
	libUpdates  = 256
	lazyUpdates = 64

	readWriteRate  = 4 // paced write batches per second in the read stage
	readWriteBatch = 8
	writeBatch     = 16
	writeReadRate  = 50 // paced reads per second in the write stage
	recoverBatches = 8  // batches acked before each SIGKILL

	// checkpointEvery is the daemon's default checkpoint policy in batches.
	// The write stage runs whole cycles of it, so every cycle holds exactly
	// one checkpoint stall and cycle times are comparable.
	checkpointEvery = 16

	// warmCycles checkpoint cycles run unmeasured before the write stage's
	// clock starts.
	warmCycles = 4
	graphName  = "g"
)
