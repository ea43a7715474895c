package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

// runConfig is one benchmark invocation on one workload.
type runConfig struct {
	w        workload
	seed     uint64
	seconds  float64 // length of the measured phase
	sc       scale
	trace    bool
	root     string // checkout root, for the fingerprint
	bin      string // egobwd binary
	work     string // this run's scratch directory (data dirs, daemon log)
	traceOut string // where the traced run writes trace.json
}

// runResult is everything one invocation measured.
type runResult struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Scale     string         `json:"scale"`
	Trace     bool           `json:"trace"`
	Metrics   metrics        `json:"metrics"`         // end-to-end (trace off) or per-layer (trace on)
	Samples   map[string]int `json:"samples"`         // sample count behind each timing
	Extra     metrics        `json:"extra,omitempty"` // trace off: the same run's client./server./proc. numbers
	Attempted int            `json:"ops_attempted"`
	Failed    int            `json:"ops_failed"`
	Correct   bool           `json:"correct"`
	Failures  []string       `json:"failures,omitempty"`
	WallS     float64        `json:"wall_s"`
	Env       envInfo        `json:"env"`

	breakdown []classBreakdown
}

// run holds the state the stages of one invocation share.
type run struct {
	cfg   runConfig
	g     *graph.Graph
	edges []edge
	body  []byte // POST /graphs request, encoded once
	chk   *checker
	res   *runResult

	setupS []float64 // cold set-ups: library + in-memory daemon + durable daemon

	lib      *libSamples
	libSt    *libState
	libRNG   *rand.Rand
	libSpent time.Duration
	read     *serveStage
	write    *serveStage
	rec      *recoverStage
	diskPE   float64 // durable data dir bytes per live edge at the end
}

func (r *run) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

func execute(cfg runConfig) (*runResult, error) {
	t0 := time.Now()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)

	g := cfg.sc.graph(cfg.w.Name, cfg.seed)
	r := &run{cfg: cfg, g: g, edges: g.Edges(), chk: &checker{}, lib: &libSamples{}, libRNG: stageRNG(cfg.seed, stageLib)}
	r.res = &runResult{Workload: cfg.w.Name, Seed: cfg.seed, Scale: cfg.sc.name, Trace: cfg.trace,
		Metrics: metrics{}, Samples: map[string]int{}, Env: fingerprint(cfg.root)}
	var err error
	if r.body, err = loadBody(g.NumVertices(), r.edges); err != nil {
		return nil, err
	}
	if r.res.Env.FsyncProbeUS, err = fsyncProbe(cfg.work); err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if err := r.probes(); err != nil {
			return nil, err
		}
	}
	defer r.stop()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	if cfg.trace {
		r.tracedLib(tr)
		if err := r.replay(tr); err != nil {
			return nil, err
		}
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	r.verify()

	if cfg.trace {
		r.layerMetrics(tr)
		r.res.breakdown = breakdown(tr.spans)
		tf := traceFile{Workload: cfg.w.Name, Seed: cfg.seed, Scale: cfg.sc.name, Env: r.res.Env, Spans: tr.spans}
		if err := writeTrace(cfg.traceOut, tf); err != nil {
			return nil, err
		}
	} else {
		r.endToEndMetrics()
		r.res.Extra = metrics{}
		r.liveLayerMetrics(r.res.Extra)
	}
	r.res.Env.DaemonGOMAXPROCS = r.write.res.after.BuildWorkers
	r.res.Attempted += r.chk.checks
	r.res.Failed += r.chk.failed()
	r.res.Failures = r.chk.failures
	r.res.Correct = r.res.Failed == 0
	r.res.WallS = time.Since(t0).Seconds()
	return r.res, nil
}

// stop kills every daemon still alive, on every path out of a run.
func (r *run) stop() {
	if r.read != nil {
		r.read.stop()
	}
	if r.write != nil {
		r.write.stop()
	}
	if r.rec != nil {
		r.rec.stop()
	}
}

// setUp performs the run's cold set-ups and leaves the last one standing:
// the library state, the in-memory daemon and the durable daemon. One
// set-up sample is the three in a row — graph.FromEdges + NewMaintainer +
// NewLazyTopK, then twice exec -> /healthz 200 -> POST /graphs 201 -> first
// topk 200 — so work a later change moves into any of them shows. The
// recover stage's daemon starts last, outside the clock.
func (r *run) setUp() error {
	setups := r.cfg.sc.setups
	if r.cfg.trace {
		setups = 1
	}
	dataDir := filepath.Join(r.cfg.work, "data")
	for i := 0; i < setups; i++ {
		r.stop()
		r.read, r.write = nil, nil
		st, libTook, err := libSetup(r.g.NumVertices(), r.edges)
		if err != nil {
			return err
		}
		r.libSt = st
		// The generator's own collector must not run beside a daemon under
		// test: a library set-up leaves tens of MB of garbage behind.
		runtime.GC()
		md, mcl, memTook, err := coldStart(r.cfg.bin, "", filepath.Join(r.cfg.work, "mem.log"), r.body)
		if err != nil {
			return err
		}
		r.read = newServeStage(md, mcl, r.g, r.cfg.seed, stageRead)
		dd, dcl, durTook, err := coldStart(r.cfg.bin, dataDir, filepath.Join(r.cfg.work, "dur.log"), r.body)
		if err != nil {
			return err
		}
		r.write = newServeStage(dd, dcl, r.g, r.cfg.seed, stageWrite)
		r.setupS = append(r.setupS, (libTook + memTook + durTook).Seconds())
	}
	rd, rcl, _, err := coldStart(r.cfg.bin, filepath.Join(r.cfg.work, "data-recover"), filepath.Join(r.cfg.work, "rec.log"), r.body)
	if err != nil {
		return err
	}
	r.rec = newRecoverStage(rd, rcl, r.g, r.cfg.seed)
	return nil
}

// tracedLib runs the traced run's library rounds twice, untraced then
// traced; the ratio of the two medians of the cheapest op is the tracing
// overhead, and the traced rounds' samples and spans feed the per-layer
// numbers.
func (r *run) tracedLib(tr *tracer) {
	plain := &libSamples{}
	for i := 0; i < r.cfg.sc.libTraceRounds; i++ {
		plain.round(r.libSt, r.libRNG, nil, r.chk)
	}
	for i := 0; i < r.cfg.sc.libTraceRounds; i++ {
		r.lib.round(r.libSt, r.libRNG, tr, r.chk)
	}
	r.count(plain.ops, 0)
	r.res.Metrics["trace.overhead_pct"] = 100 * (ratio(median(r.lib.localUS()), median(plain.localUS())) - 1)
}

// measure is the measured phase: cfg.seconds split into slices, each slice
// giving every stage its share in turn. A metric's samples therefore span
// the whole phase. On a shared host whose speed wanders by a tenth over tens
// of seconds that is what keeps two runs of the same code close: a stage run
// in one piece would take all of one spell, good or bad.
func (r *run) measure() error {
	seconds, slices := r.cfg.seconds, r.cfg.sc.slices
	if r.cfg.trace {
		// The traced run has its library samples already and needs the live
		// stages only for their /stats deltas and client classes.
		seconds, slices = min(seconds, r.cfg.sc.traceSeconds), max(1, slices/4)
	}
	share := func(s float64) time.Duration { return time.Duration(s * seconds * float64(time.Second)) }
	if err := r.read.begin(stageRead); err != nil {
		return err
	}
	if err := r.write.begin(stageWrite); err != nil {
		return err
	}
	for i := 1; i <= slices; i++ {
		upTo := func(total time.Duration) time.Duration { return total * time.Duration(i) / time.Duration(slices) }
		if !r.cfg.trace {
			for target := upTo(share(libShare)); r.libSpent < target; {
				t0 := time.Now()
				r.lib.round(r.libSt, r.libRNG, nil, r.chk)
				r.libSpent += time.Since(t0)
			}
			runtime.GC() // the rounds' garbage, collected before a daemon is on the clock
		}
		r.read.readSlice(upTo(share(readShare)))
		r.write.writeSlice(upTo(share(writeShare)))
		for j := 0; j < r.cfg.sc.recoverPerSlice; j++ {
			if err := r.rec.cycle(r.cfg.sc.vertexChecks, r.chk); err != nil {
				return err
			}
		}
	}
	if err := r.read.end(); err != nil {
		return err
	}
	return r.write.end()
}

// verify holds every stage's final state against a from-scratch recompute
// on the harness's own models.
func (r *run) verify() {
	r.count(r.lib.ops, 0)
	verifyMaintainers(r.chk, r.libSt)
	if !r.cfg.trace {
		// On a traced run the probes are this oracle, with timings.
		verifyLibrary(r.chk, r.g, newTruth(r.g), []int{10, 100, 1000}, r.cfg.sc.baseKs)
	}
	for _, s := range []*serveStage{r.read, r.write} {
		r.count(s.res.attempted(), s.res.failed())
		for _, c := range []*clientSamples{&s.res.closed, &s.res.pacedC, &s.res.warm} {
			r.noteClientErrors(c)
		}
	}
	r.count(r.rec.writes.attempted+len(r.rec.recoverMS), r.rec.writes.failed)
	r.noteClientErrors(&r.rec.writes)

	algos := []string{server.AlgoScores, server.AlgoOpt, server.AlgoApprox}
	if len(r.cfg.sc.baseKs) > 0 {
		algos = append(algos, server.AlgoBase)
	}
	n := r.cfg.sc.vertexChecks
	verifyServed(r.chk, r.read.cl, r.read.mdl, newRand(r.cfg.seed+11), n, algos)
	verifyServed(r.chk, r.write.cl, r.write.mdl, newRand(r.cfg.seed+13), n, []string{""})
	verifyServed(r.chk, r.rec.cl, r.rec.mdl, newRand(r.cfg.seed+15), n, []string{""})
	r.diskPE = ratio(float64(dirBytes(r.write.d.dataDir)), float64(len(r.write.mdl.live)))
}

func (r *run) noteClientErrors(c *clientSamples) {
	if c.firstErr != "" {
		r.chk.failf("%d failed requests, first: %s", c.failed, c.firstErr)
	}
}

func (r *run) set(name string, value float64, samples int) {
	r.res.Metrics[name] = value
	r.res.Samples[name] = samples
}

func (r *run) endToEndMetrics() {
	l := r.lib
	r.set("setup_s", median(r.setupS), len(r.setupS))
	r.set("topk_exact_p50_ms", median(l.exactMS), len(l.exactMS))
	r.set("topk_approx_p50_ms", median(l.approxMS), len(l.approxMS))
	r.set("compute_all_p50_ms", median(l.allMS), len(l.allMS))
	local := l.localUS()
	r.set("update_local_p50_us", median(local), len(local))

	reader := &r.read.res.closed
	reads := reader.allReads()
	r.set("reads_per_s", reader.unitRate(churnBlockSize), len(reader.unitS))
	r.set("read_p50_ms", median(reads), len(reads))
	r.set("read_p99_ms", percentile(reads, 99), len(reads))

	writer := &r.write.res.closed
	r.set("write_edges_per_s", writer.unitRate(checkpointEvery*writeBatch), len(writer.unitS))
	r.set("write_ack_p50_ms", mixedMedian(writer.insertMS, writer.deleteMS, insertShare), len(writer.insertMS)+len(writer.deleteMS))
	r.set("recover_p50_ms", median(r.rec.recoverMS), len(r.rec.recoverMS))
}

// liveLayerMetrics fills the per-layer numbers that come from the live
// daemon stages: /stats deltas, client-side classes, /proc. The cache
// counters are the read stage's (in-memory daemon); the write pipeline's
// counters and the process numbers are the write stage's (durable daemon).
func (r *run) liveLayerMetrics(m metrics) {
	rd, wr := &r.read.res, &r.write.res
	hits := float64(rd.after.CacheHits - rd.before.CacheHits)
	misses := float64(rd.after.CacheMisses - rd.before.CacheMisses)
	m["server.cache.hit_ratio"] = ratio(hits, hits+misses)
	commits := float64(wr.after.GroupCommits - wr.before.GroupCommits)
	batches := float64(wr.after.CoalescedBatches - wr.before.CoalescedBatches)
	m["server.group.mean_batches"] = ratio(batches, commits)
	m["server.write_rejects"] = float64(wr.after.WriteRejects - wr.before.WriteRejects)
	m["server.compactions"] = float64(wr.after.Compactions - wr.before.Compactions)
	m["server.checkpoints"] = float64(wr.after.Checkpoints - wr.before.Checkpoints)
	m["graph.scores_copied_per_batch"] = ratio(float64(wr.after.ScoresCopied-wr.before.ScoresCopied), batches)
	m["graph.overlay_depth_end"] = float64(rd.after.OverlayDepth)
	m["store.disk_bytes_per_edge"] = r.diskPE

	m["client.late_p99_ms"] = percentile(wr.pacedC.lateMS, 99)
	m["client.late_writer_p99_ms"] = percentile(rd.pacedC.lateMS, 99)
	m["client.read_p99_ms"] = percentile(wr.pacedC.allReads(), 99)
	m["client.read_under_write_p50_ms"] = median(wr.pacedC.allReads())
	for class, name := range readClassNames {
		m["client.read_"+name+"_p50_ms"] = median(rd.closed.readMS[class])
	}
	m["client.write_insert_p50_ms"] = median(wr.closed.insertMS)
	m["client.write_delete_p50_ms"] = median(wr.closed.deleteMS)
	m["client.write_paced_p50_ms"] = median(rd.pacedC.allWrites())
	m["client.write_stall_p50_ms"] = median(wr.closed.stallMS)
	m["client.write_ack_p99_ms"] = percentile(wr.closed.allWrites(), 99)
	m["client.write_ack_max_ms"] = maxOf(wr.closed.allWrites())

	m["proc.peak_rss_mb"] = wr.procAfter.peakRSSMB
	m["proc.cpu_ms_per_op"] = ratio(wr.procAfter.cpuMS-wr.procBefore.cpuMS, float64(wr.attempted()-wr.warm.attempted))
}
