package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
)

// scrapeBody GETs /metrics and returns its body, failing on a status or
// content type the text format does not allow.
func scrapeBody(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	body, _ := io.ReadAll(rec.Body)
	return string(body)
}

// scrape GETs /metrics and returns each counter and gauge sample keyed by
// series name and raw (escaped) graph label, failing on a line the text
// format does not allow or a series without its HELP and TYPE. Histogram
// families are skipped here and read by scrapeHistograms.
func scrape(t *testing.T, h http.Handler) map[string]map[string]float64 {
	t.Helper()
	out := map[string]map[string]float64{}
	typed := map[string]bool{}
	var histogram string // the histogram family whose samples follow
	for _, line := range strings.Split(strings.TrimSuffix(scrapeBody(t, h), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" || typed[name] {
				t.Fatalf("bad or repeated TYPE line %q", line)
			}
			typed[name] = true
			histogram = ""
			if kind == "histogram" {
				histogram = name
			}
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || histogram != "" && strings.HasPrefix(line, histogram+"_") {
			continue
		}
		name, rest, ok1 := strings.Cut(line, `{graph="`)
		label, value, ok2 := cutLast(rest, `"} `)
		v, err := strconv.ParseFloat(value, 64)
		if !ok1 || !ok2 || err != nil || !typed[name] {
			t.Fatalf("bad sample line %q", line)
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		out[name][label] = v
	}
	return out
}

// histSeries is one histogram series read back from a scrape.
type histSeries struct {
	les        []string  // bucket bounds in exposition order
	cum        []float64 // cumulative bucket counts
	sum, count float64
}

// scrapeHistograms returns each histogram series keyed by family and raw
// label set (le excluded), failing on a sample outside a declared
// histogram family.
func scrapeHistograms(t *testing.T, h http.Handler) map[string]map[string]*histSeries {
	t.Helper()
	out := map[string]map[string]*histSeries{}
	family := ""
	for _, line := range strings.Split(strings.TrimSuffix(scrapeBody(t, h), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if family = ""; kind == "histogram" {
				family = name
				out[family] = map[string]*histSeries{}
			}
			continue
		}
		suffix, ok := strings.CutPrefix(line, family+"_")
		if family == "" || strings.HasPrefix(line, "#") || !ok {
			continue
		}
		kind, rest, _ := strings.Cut(suffix, "{")
		labels, value, ok := cutLast(rest, "} ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			t.Fatalf("bad histogram line %q", line)
		}
		le := ""
		if kind == "bucket" {
			var found bool
			if labels, le, found = cutLast(labels, `,le="`); !found {
				t.Fatalf("bucket without le: %q", line)
			}
			le = strings.TrimSuffix(le, `"`)
		}
		s := out[family][labels]
		if s == nil {
			s = &histSeries{}
			out[family][labels] = s
		}
		switch kind {
		case "bucket":
			s.les, s.cum = append(s.les, le), append(s.cum, v)
		case "sum":
			s.sum = v
		case "count":
			s.count = v
		default:
			t.Fatalf("sample %q is not a histogram's", line)
		}
	}
	return out
}

func cutLast(s, sep string) (before, after string, found bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// TestMetricsMatchStats: after loads, durable writes with checkpoints, and
// exact, approx and cached queries, every series of every graph reads what
// GraphStats reports, and a removed graph leaves the scrape.
func TestMetricsMatchStats(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}),
		WithRegistryOptions(WithDataDir(t.TempDir()), WithCheckpointPolicy(2, 0)))
	reg := s.Registry()
	defer reg.Close()
	for _, name := range []string{"a", "b"} {
		if _, err := reg.Add(name, gen.BarabasiAlbert(300, 3, 7), ModeLocal, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 5; i++ {
		if _, err := reg.applyEdges("a", [][2]int32{{i, 200 + i}, {i, 250 + i}}, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.applyEdges("a", [][2]int32{{0, 200}}, false); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{AlgoOpt, AlgoBase, AlgoApprox, AlgoScores, AlgoScores} {
		if _, err := reg.topK("a", 10, algo); err != nil {
			t.Fatal(err)
		}
	}
	got := scrape(t, s.Handler())
	for _, name := range []string{"a", "b"} {
		st, err := reg.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{
			"egobw_cache_hits_total": float64(st.CacheHits), "egobw_cache_misses_total": float64(st.CacheMisses),
			"egobw_approx_queries_total": float64(st.ApproxQueries), "egobw_approx_samples_total": float64(st.ApproxSamples),
			"egobw_group_commits_total": float64(st.GroupCommits), "egobw_coalesced_batches_total": float64(st.CoalescedBatches),
			"egobw_write_rejects_total": float64(st.WriteRejects), "egobw_compactions_total": float64(st.Compactions),
			"egobw_audited_total": float64(st.Audited), "egobw_audit_mismatches_total": float64(st.AuditMismatches),
			"egobw_scores_copied_total": float64(st.ScoresCopied),
			"egobw_checkpoints_total":   float64(st.Checkpoints), "egobw_inserts_total": float64(st.Inserts),
			"egobw_deletes_total": float64(st.Deletes), "egobw_expired_edges_total": float64(st.ExpiredEdges),
			"egobw_epoch": float64(st.Epoch), "egobw_vertices": float64(st.N), "egobw_edges": float64(st.M),
			"egobw_overlay_depth": float64(st.OverlayDepth), "egobw_write_queue_depth": float64(st.WriteQueueDepth),
			"egobw_wal_bytes": float64(st.WALBytes), "egobw_snapshot_bytes": float64(st.SnapshotBytes),
			"egobw_replica_lag_batches": float64(st.ReplicaLagSeq), "egobw_replica_lag_seconds": st.ReplicaLagMS / 1e3,
		}
		if len(got) != len(want) {
			t.Fatalf("scrape has %d series, want %d", len(got), len(want))
		}
		for series, v := range want {
			if g, ok := got[series][name]; !ok || g != v {
				t.Errorf("%s{graph=%q} = %v (present %v), stats say %v", series, name, g, ok, v)
			}
		}
	}
	if a := got["egobw_cache_hits_total"]["a"]; a != 3 || got["egobw_approx_queries_total"]["a"] != 1 ||
		got["egobw_inserts_total"]["a"] == 0 || got["egobw_checkpoints_total"]["a"] == 0 {
		t.Fatalf("graph a's scrape lost its subject: hits %v, approx queries %v, inserts %v, checkpoints %v", a,
			got["egobw_approx_queries_total"]["a"], got["egobw_inserts_total"]["a"], got["egobw_checkpoints_total"]["a"])
	}

	if err := reg.Remove("a"); err != nil {
		t.Fatal(err)
	}
	for series, graphs := range scrape(t, s.Handler()) {
		if _, ok := graphs["a"]; ok || len(graphs) != 1 {
			t.Fatalf("%s after removing a: %v", series, graphs)
		}
	}
}

// TestMetricsEscapeLabels: a graph name holding a quote, a backslash and a
// newline renders as one escaped label value.
func TestMetricsEscapeLabels(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	reg := s.Registry()
	defer reg.Close()
	if _, err := reg.Add("q\"b\\n\nl", gen.BarabasiAlbert(50, 2, 3), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	got := scrape(t, s.Handler())
	if v, ok := got["egobw_vertices"][`q\"b\\n\nl`]; !ok || v != 50 {
		t.Fatalf("egobw_vertices by escaped label: %v", got["egobw_vertices"])
	}
}

// TestMetricsHistograms: each computed top-k search is observed once, in its
// resolved algo's series (opt and base resolve to scores), a cache hit in
// none, and each commit once; every series is a well-formed cumulative
// histogram, an idle graph's included, and a removed graph's series leave
// the scrape.
func TestMetricsHistograms(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}), WithRegistryOptions(WithDataDir(t.TempDir())))
	reg := s.Registry()
	defer reg.Close()
	for _, name := range []string{"a", `b"\`} {
		if _, err := reg.Add(name, gen.BarabasiAlbert(200, 3, 5), ModeLocal, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 3; i++ {
		if _, err := reg.applyEdges("a", [][2]int32{{i, 150 + i}}, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, algo := range []string{AlgoOpt, AlgoBase, AlgoScores, AlgoApprox, AlgoApprox, AlgoScores} {
		if _, err := reg.topK("a", 10, algo); err != nil {
			t.Fatal(err)
		}
	}
	st, err := reg.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	got := scrapeHistograms(t, s.Handler())
	search, commit := got["egobw_topk_search_seconds"], got["egobw_commit_seconds"]
	if len(search) != 4 || len(commit) != 2 {
		t.Fatalf("%d search and %d commit series, want 2 algos × 2 graphs and 2", len(search), len(commit))
	}
	want := map[string]float64{
		`graph="a",algo="scores"`: 1, `graph="a",algo="approx"`: float64(st.ApproxQueries),
		`graph="b\"\\",algo="scores"`: 0, `graph="b\"\\",algo="approx"`: 0,
	}
	if st.ApproxQueries != 1 || st.CacheMisses != 2 || st.CacheHits != 4 {
		t.Fatalf("stats: approx %d, misses %d, hits %d; want 1, 2, 4", st.ApproxQueries, st.CacheMisses, st.CacheHits)
	}
	for labels, n := range want {
		if h := search[labels]; h == nil || h.count != n {
			t.Fatalf("search series %s = %+v, want count %v", labels, h, n)
		}
	}
	if h := commit[`graph="a"`]; h == nil || h.count != float64(st.GroupCommits) || st.GroupCommits != 3 {
		t.Fatalf("commit series of a = %+v, group commits %d", h, st.GroupCommits)
	}
	for family, series := range got {
		for labels, h := range series {
			if len(h.les) < 2 || h.les[len(h.les)-1] != "+Inf" || h.cum[len(h.cum)-1] != h.count ||
				!slices.IsSorted(h.cum) || (h.count > 0) != (h.sum > 0) {
				t.Fatalf("%s{%s} is not a cumulative histogram: %+v", family, labels, h)
			}
		}
	}

	if err := reg.Remove("a"); err != nil {
		t.Fatal(err)
	}
	for family, series := range scrapeHistograms(t, s.Handler()) {
		for labels := range series {
			if strings.HasPrefix(labels, `graph="a"`) {
				t.Fatalf("%s{%s} after removing a", family, labels)
			}
		}
	}
}
