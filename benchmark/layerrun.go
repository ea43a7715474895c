package main

import (
	"path/filepath"
)

// probes runs the layer probes on the workload's graph (traced run only).
// They double as the cross-algorithm oracle: every search and both
// parallel engines are held against the sequential ComputeAll.
func (r *run) probes() error {
	m := r.res.Metrics
	t := newTruth(r.g)
	rng := newRand(r.cfg.seed + 17)
	if err := probeGraph(m, r.g, rng); err != nil {
		return err
	}
	probeEgo(m, r.g, t, rng, r.cfg.sc.baseKs, r.chk)
	probeNbr(m, r.g, r.cfg.sc.hubs, r.chk)
	probeParallel(m, r.g, t, r.chk)
	probeApprox(m, r.g, t, r.chk)
	return probeStore(m, r.g, r.cfg.work, rng)
}

// replay runs the traced layer replay of both serve scripts.
func (r *run) replay(tr *tracer) error {
	ops, err := replayReads(tr, r.g, stageRNG(r.cfg.seed+2, stageRead), r.cfg.sc.replayBlocks, r.chk)
	if err != nil {
		return err
	}
	r.count(ops, 0)
	ops, recoverMS, err := replayWrites(tr, r.g, stageRNG(r.cfg.seed+2, stageWrite), r.cfg.sc.replayWrites,
		filepath.Join(r.cfg.work, "twins"), r.chk)
	if err != nil {
		return err
	}
	r.count(ops, 0)
	r.res.Metrics["server.recover_ms"] = recoverMS
	return nil
}

// layerMetrics derives the remaining per-layer numbers: from the spans of
// the replay and the traced lib rounds, from the set-up, and from the live
// daemon stages.
func (r *run) layerMetrics(tr *tracer) {
	m := r.res.Metrics
	sp := tr.spans
	m["store.fsync_probe_us"] = r.res.Env.FsyncProbeUS
	m["dynamic.build_local_ms"] = ms(r.libSt.buildLocal)
	m["dynamic.build_lazy_ms"] = ms(r.libSt.buildLazy)

	m["graph.publish_us"] = durMedianUs(sp, "graph.publish")
	m["ego.opt.overlay_ms"] = durMedianUs(sp, "ego.search", "read.opt.miss") / 1e3
	m["approx.overlay_k_ms"] = durMedianUs(sp, "approx.topk", "read.approx.miss") / 1e3
	m["dynamic.apply_us_per_edge"] = ratio(float64(sumDurNs(sp, "dynamic.apply", "write.durable"))/1e3,
		float64(r.cfg.sc.replayWrites*writeBatch))
	m["server.http.read_self_us"] = selfMedianUs(sp, "server.http", "read.")
	m["server.http.write_self_us"] = selfMedianUs(sp, "server.http", "write.")
	m["server.registry.hit_us"] = durMedianUs(sp, "server.registry", "read.hot.hit", "read.opt.hit", "read.approx.hit")
	m["server.registry.miss_self_us"] = selfMedianUs(sp, "server.registry", "read.hot.miss", "read.opt.miss", "read.approx.miss")
	m["server.registry.write_self_us"] = selfMedianUs(sp, "server.registry", "write.")

	l := r.lib
	local := l.localUS()
	m["dynamic.local.insert_p50_us"] = median(l.localInsUS)
	m["dynamic.local.delete_p50_us"] = median(l.localDelUS)
	m["dynamic.local.update_p99_us"] = percentile(local, 99)
	ms := r.libSt.m.Stats
	updates := float64(ms.Inserts + ms.Deletes)
	m["dynamic.local.touched_pairs_per_update"] = ratio(float64(ms.TouchedPairs), updates)
	m["dynamic.local.affected_per_update"] = ratio(float64(ms.AffectedVerts), updates)
	m["dynamic.lazy.edge_p50_us"] = median(l.lazyEdgeUS)
	m["dynamic.lazy.insert_p50_us"] = median(l.lazyInsUS)
	m["dynamic.lazy.delete_p50_us"] = median(l.lazyDelUS)
	m["dynamic.lazy.results_p50_us"] = median(l.lazyResultsUS)
	ls := r.libSt.lt.Stats
	lazyUpdates := float64(ls.Inserts + ls.Deletes)
	m["dynamic.lazy.recomputed_per_update"] = ratio(float64(ls.Recomputed), lazyUpdates)
	m["dynamic.lazy.stale_marked_per_update"] = ratio(float64(ls.StaleMarked), lazyUpdates)
	m["dynamic.lazy.swaps"] = float64(ls.Swaps)

	r.liveLayerMetrics(m)
}
