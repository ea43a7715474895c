package server

// This file is the Prometheus scrape: GET /metrics renders, per graph, the
// counters and gauges GraphInfo and GraphStats already hold, in the text
// exposition format 0.0.4. It reads what they read and keeps no state.

import (
	"bytes"
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
	{"egobw_exact_queries_total", "counter", "Exact top-k searches computed (algo=opt, and base, its alias).",
		func(g *GraphStats) float64 { return float64(g.ExactQueries) }},
	{"egobw_exact_computed_total", "counter", "Vertices the exact searches computed exactly.",
		func(g *GraphStats) float64 { return float64(g.ExactComputed) }},
	{"egobw_exact_pruned_total", "counter", "Vertices the exact searches pruned by a bound.",
		func(g *GraphStats) float64 { return float64(g.ExactPruned) }},
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
	var graphs []GraphStats
	s.reg.each(func(e *entry) { graphs = append(graphs, e.counters(e.snap.Load())) })
	var buf bytes.Buffer
	for _, m := range graphMetrics {
		buf.WriteString("# HELP " + m.name + " " + m.help + "\n# TYPE " + m.name + " " + m.kind + "\n")
		for i := range graphs {
			buf.WriteString(m.name + `{graph="` + labelEscaper.Replace(graphs[i].Name) + `"} `)
			buf.WriteString(strconv.FormatFloat(m.value(&graphs[i]), 'f', -1, 64) + "\n")
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes()) // a client that went away is not the handler's error
}
