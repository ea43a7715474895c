package server

// This file is the Prometheus scrape: GET /metrics renders, per graph, the
// counters and gauges GraphInfo and GraphStats already hold, then the
// latency histograms the entry keeps (internal/obs), in the text exposition
// format 0.0.4.

import (
	"net/http"
	"strconv"
	"strings"
)

// graphMetrics are the series of one graph, in exposition order.
var graphMetrics = []struct {
	name, kind, help string
	value            func(*GraphStats) float64
}{
	{"egobw_cache_hits_total", "counter", "Top-k queries answered from a snapshot's cache.",
		func(g *GraphStats) float64 { return float64(g.CacheHits) }},
	{"egobw_cache_misses_total", "counter", "Top-k queries computed: not in the snapshot's cache.",
		func(g *GraphStats) float64 { return float64(g.CacheMisses) }},
	{"egobw_approx_queries_total", "counter", "Approximate top-k queries computed.",
		func(g *GraphStats) float64 { return float64(g.ApproxQueries) }},
	{"egobw_approx_samples_total", "counter", "Pair samples the approximate queries drew.",
		func(g *GraphStats) float64 { return float64(g.ApproxSamples) }},
	{"egobw_group_commits_total", "counter", "Group commits the writer published.",
		func(g *GraphStats) float64 { return float64(g.GroupCommits) }},
	{"egobw_coalesced_batches_total", "counter", "Edge batches the group commits carried.",
		func(g *GraphStats) float64 { return float64(g.CoalescedBatches) }},
	{"egobw_write_rejects_total", "counter", "Edge batches refused by a full write queue.",
		func(g *GraphStats) float64 { return float64(g.WriteRejects) }},
	{"egobw_compactions_total", "counter", "Overlay chains folded into a fresh CSR.",
		func(g *GraphStats) float64 { return float64(g.Compactions) }},
	{"egobw_audited_total", "counter", "Fresh published scores the compactor recomputed with the kernel.",
		func(g *GraphStats) float64 { return float64(g.Audited) }},
	{"egobw_audit_mismatches_total", "counter", "Audited scores that differed from the kernel's bits.",
		func(g *GraphStats) float64 { return float64(g.AuditMismatches) }},
	{"egobw_scores_copied_total", "counter", "Score entries the copy-on-write vector materialized.",
		func(g *GraphStats) float64 { return float64(g.ScoresCopied) }},
	{"egobw_checkpoints_total", "counter", "Snapshots checkpointed to disk.",
		func(g *GraphStats) float64 { return float64(g.Checkpoints) }},
	{"egobw_inserts_total", "counter", "Edges inserted.",
		func(g *GraphStats) float64 { return float64(g.Inserts) }},
	{"egobw_deletes_total", "counter", "Edges deleted.",
		func(g *GraphStats) float64 { return float64(g.Deletes) }},
	{"egobw_expired_edges_total", "counter", "Edges the sliding window expired.",
		func(g *GraphStats) float64 { return float64(g.ExpiredEdges) }},
	{"egobw_epoch", "gauge", "Epoch of the served snapshot.",
		func(g *GraphStats) float64 { return float64(g.Epoch) }},
	{"egobw_vertices", "gauge", "Vertices of the served snapshot (n).",
		func(g *GraphStats) float64 { return float64(g.N) }},
	{"egobw_edges", "gauge", "Edges of the served snapshot (m).",
		func(g *GraphStats) float64 { return float64(g.M) }},
	{"egobw_overlay_depth", "gauge", "Delta layers the served view stacks on its base CSR.",
		func(g *GraphStats) float64 { return float64(g.OverlayDepth) }},
	{"egobw_write_queue_depth", "gauge", "Edge batches waiting in the write queue.",
		func(g *GraphStats) float64 { return float64(g.WriteQueueDepth) }},
	{"egobw_wal_bytes", "gauge", "Size of the write-ahead log.",
		func(g *GraphStats) float64 { return float64(g.WALBytes) }},
	{"egobw_snapshot_bytes", "gauge", "Size of the on-disk snapshot.",
		func(g *GraphStats) float64 { return float64(g.SnapshotBytes) }},
	{"egobw_replica_lag_batches", "gauge", "Durable leader batches a replica has not applied.",
		func(g *GraphStats) float64 { return float64(g.ReplicaLagSeq) }},
	{"egobw_replica_lag_seconds", "gauge", "Time since a replica was last caught up.",
		func(g *GraphStats) float64 { return g.ReplicaLagMS / 1e3 }},
}

// searchAlgos are the algos a query resolves to, in entry.searchSeconds'
// order (opt and base resolve to scores).
var searchAlgos = [...]string{AlgoScores, AlgoApprox}

// counters is the stats payload without the structural part, which costs a
// triangle count per epoch: what a scrape reads, and what Stats adds to.
func (e *entry) counters(s *snapshot) GraphStats {
	return GraphStats{
		GraphInfo:   e.infoAt(s),
		Inserts:     e.inserts.Load(),
		Deletes:     e.deletes.Load(),
		CacheHits:   e.cacheHits.Load(),
		CacheMisses: e.cacheMisses.Load(),
	}
}

// labelEscaper escapes a label value as the text format asks.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// handleMetrics serves the scrape: every graph served when it starts, one
// consistent snapshot per graph.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var (
		graphs  []GraphStats
		entries []*entry
		labels  []string // graph="…", escaped
	)
	s.reg.each(func(e *entry) {
		graphs = append(graphs, e.counters(e.snap.Load()))
		entries = append(entries, e)
		labels = append(labels, `graph="`+labelEscaper.Replace(e.name)+`"`)
	})
	var buf []byte
	header := func(name, kind, help string) {
		buf = append(buf, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+kind+"\n"...)
	}
	for _, m := range graphMetrics {
		header(m.name, m.kind, m.help)
		for i := range graphs {
			buf = append(buf, m.name+"{"+labels[i]+"} "...)
			buf = strconv.AppendFloat(buf, m.value(&graphs[i]), 'f', -1, 64)
			buf = append(buf, '\n')
		}
	}
	header("egobw_topk_search_seconds", "histogram", "Search time of top-k cache misses, by the algo the query resolved to.")
	for i, e := range entries {
		for a, algo := range searchAlgos {
			buf = e.searchSeconds[a].AppendText(buf, "egobw_topk_search_seconds", labels[i]+`,algo="`+algo+`"`)
		}
	}
	header("egobw_commit_seconds", "histogram", "Wall time of each commit: WAL append, apply, publish, checkpoint.")
	for i, e := range entries {
		buf = e.commitSeconds.AppendText(buf, "egobw_commit_seconds", labels[i])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	_, _ = w.Write(buf) // a client that went away is not the handler's error
}
