package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ship"
	"repro/internal/store"
)

// The sliding-window serving suite (DESIGN.md §14): expiry must happen only
// through WAL-recorded delete batches synthesized by the leader's writer, so
// crash recovery, restarts, and shipped followers all replay the identical
// timeline — no clock ever runs anywhere but the leader's drain. Tests
// inject the clock (WithClock) and advance it explicitly; wall time only
// decides *when* an expiry batch is cut, never *what* it contains.

// fakeClock is the injectable unix-ms clock: frozen until a test advances it.
type fakeClock struct{ ms atomic.Int64 }

func (c *fakeClock) now() int64      { return c.ms.Load() }
func (c *fakeClock) set(ms int64)    { c.ms.Store(ms) }
func (c *fakeClock) advance(d int64) { c.ms.Add(d) }

// waitForM polls until graph name serves exactly m edges — expiry rides
// drains (a client write or the idle ticker), so crossing the window
// boundary becomes visible within a tick.
func waitForM(t *testing.T, reg *Registry, name string, m int64) GraphInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := reg.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.M == m {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("graph %q stuck at m=%d, want %d (expired=%d batches=%d)",
				name, info.M, m, info.ExpiredEdges, info.ExpiryBatches)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWindowedServing drives a windowed graph with an injected clock through
// inserts and window crossings and checks the served state, the expiry
// counters, and that timestamps are honored: client-stamped edges expire by
// their stamp, unstamped ones by receive time.
func TestWindowedServing(t *testing.T) {
	clk := &fakeClock{}
	clk.set(1_000_000)
	base, _ := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	reg := durableRegistry(t.TempDir(), WithClock(clk.now))
	defer reg.Close()

	const window = time.Minute
	info, err := reg.AddWindowed("g", base, ModeLocal, window)
	if err != nil {
		t.Fatal(err)
	}
	if info.Window != "1m0s" {
		t.Fatalf("Window = %q, want 1m0s", info.Window)
	}
	if info.OldestEdgeAgeMS != 0 {
		t.Fatalf("fresh graph reports oldest age %v", info.OldestEdgeAgeMS)
	}

	// A batch stamped in the past (but inside the window) plus one stamped
	// at receive time.
	clk.advance(10_000) // t = +10s; initial edges now 10s old
	if _, err := reg.ApplyEdgesStamped("g", [][2]int32{{0, 2}}, []int64{clk.now() - 50_000}, true, AckDurable); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.applyEdges("g", [][2]int32{{1, 3}}, true); err != nil {
		t.Fatal(err)
	}
	info, _ = reg.Info("g")
	if info.M != 5 {
		t.Fatalf("m = %d, want 5", info.M)
	}
	if info.OldestEdgeAgeMS != 50_000 {
		t.Fatalf("oldest age = %v, want 50000 (the back-stamped edge)", info.OldestEdgeAgeMS)
	}

	// +11s: the back-stamped edge (stamp −50s) crosses the 60s window;
	// everything else is ≤ 21s old. The next drain must expire exactly it.
	clk.advance(11_000)
	if _, err := reg.applyEdges("g", [][2]int32{{0, 3}}, true); err != nil {
		t.Fatal(err)
	}
	info = waitForM(t, reg, "g", 5)
	if info.ExpiredEdges != 1 || info.ExpiryBatches != 1 {
		t.Fatalf("expired=%d batches=%d, want 1/1", info.ExpiredEdges, info.ExpiryBatches)
	}

	// Past the window for the creation-time edges: only the two later
	// inserts survive. No client write needed — the idle ticker cuts the
	// expiry batch.
	clk.advance(45_000) // initial edges now 66s old, {1,3} 56s, {0,3} 45s
	info = waitForM(t, reg, "g", 2)
	if info.ExpiredEdges != 4 {
		t.Fatalf("expired=%d, want 4", info.ExpiredEdges)
	}

	// An explicitly deleted edge must not resurrect as a later expiry.
	if _, err := reg.applyEdges("g", [][2]int32{{1, 3}}, false); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * 60_000)
	info = waitForM(t, reg, "g", 0)
	if info.ExpiredEdges != 5 {
		t.Fatalf("expired=%d after client delete, want 5 (deleted edge must not count)", info.ExpiredEdges)
	}
	if info.OldestEdgeAgeMS != 0 {
		t.Fatalf("empty graph reports oldest age %v", info.OldestEdgeAgeMS)
	}
}

// TestWindowedValidation pins the request-validation surface: windows
// shorter than 1ms, stamps on unwindowed graphs, on deletes, or with the
// wrong count are all rejected up front.
func TestWindowedValidation(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	base, _ := graph.FromEdges(3, [][2]int32{{0, 1}})

	if _, err := reg.AddWindowed("w", base, ModeLocal, 100*time.Microsecond); err == nil {
		t.Fatal("sub-millisecond window accepted")
	}
	if _, err := reg.AddWindowed("w", base, ModeLocal, -time.Second); err == nil {
		t.Fatal("negative window accepted")
	}

	if _, err := reg.AddWindowed("plain", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyEdgesStamped("plain", [][2]int32{{0, 2}}, []int64{5}, true, AckDurable); err == nil ||
		!strings.Contains(err.Error(), "not windowed") {
		t.Fatalf("stamps on unwindowed graph accepted: %v", err)
	}

	if _, err := reg.AddWindowed("win", base, ModeLocal, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyEdgesStamped("win", [][2]int32{{0, 1}}, []int64{5}, false, AckDurable); err == nil ||
		!strings.Contains(err.Error(), "insert batches only") {
		t.Fatalf("stamps on delete accepted: %v", err)
	}
	if _, err := reg.ApplyEdgesStamped("win", [][2]int32{{0, 2}, {1, 2}}, []int64{5}, true, AckDurable); err == nil ||
		!strings.Contains(err.Error(), "2 edges") {
		t.Fatalf("stamp count mismatch accepted: %v", err)
	}
}

// TestWindowedHTTP covers the HTTP surface: the window field on create
// (including the 400 on a window below the 1ms stamp resolution), ts/stamps
// on edge batches, and the windowed fields of GraphInfo coming back over
// the wire.
func TestWindowedHTTP(t *testing.T) {
	clk := &fakeClock{}
	clk.set(500_000)
	srv := New(WithLogger(func(string, ...any) {}),
		WithRegistryOptions(WithClock(clk.now), WithWindow(time.Hour)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Registry().Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	// Explicit window below the stamp resolution: clear 400.
	if code, body := post("/graphs", `{"name":"bad","edges":[[0,1]],"window":"500us"}`); code != http.StatusBadRequest ||
		!strings.Contains(body, "stamp resolution") {
		t.Fatalf("short window: code=%d body=%s", code, body)
	}
	// Unparseable window: 400.
	if code, _ := post("/graphs", `{"name":"bad","edges":[[0,1]],"window":"soon"}`); code != http.StatusBadRequest {
		t.Fatalf("bad window string: code=%d", code)
	}
	// "none" opts out of the daemon-wide default window.
	if code, _ := post("/graphs", `{"name":"plain","edges":[[0,1]],"window":"none"}`); code != http.StatusCreated {
		t.Fatalf("window none: code=%d", code)
	}
	if info, _ := srv.Registry().Info("plain"); info.Window != "" {
		t.Fatalf("window none produced window %q", info.Window)
	}
	// Absent window inherits the default (1h here).
	if code, _ := post("/graphs", `{"name":"defaulted","edges":[[0,1]]}`); code != http.StatusCreated {
		t.Fatalf("default window: code=%d", code)
	}
	if info, _ := srv.Registry().Info("defaulted"); info.Window != "1h0m0s" {
		t.Fatalf("default window not inherited: %q", info.Window)
	}
	// Explicit window on create.
	if code, body := post("/graphs", `{"name":"win","edges":[[0,1],[1,2]],"window":"90s"}`); code != http.StatusCreated ||
		!strings.Contains(body, `"window": "1m30s"`) {
		t.Fatalf("windowed create: code=%d body=%s", code, body)
	}

	// ts and stamps are mutually exclusive; stamps on an unwindowed graph 400.
	if code, _ := post("/graphs/win/edges", `{"edges":[[0,2]],"ts":1,"stamps":[2]}`); code != http.StatusBadRequest {
		t.Fatalf("ts+stamps: code=%d", code)
	}
	if code, _ := post("/graphs/plain/edges", `{"edges":[[0,2]],"ts":400000}`); code != http.StatusBadRequest {
		t.Fatalf("ts on unwindowed graph: code=%d", code)
	}
	// A batch-level ts stamps every edge; a back-stamped batch past the
	// window expires on the next drain.
	if code, _ := post("/graphs/win/edges", fmt.Sprintf(`{"edges":[[0,3],[2,3]],"ts":%d}`, clk.now()-100_000)); code != http.StatusOK {
		t.Fatalf("stamped insert: code=%d", code)
	}
	waitForM(t, srv.Registry(), "win", 2) // the two creation-time edges survive
}

// windowedStep is one scripted step of the recovery/replication suites: a
// clock advance followed by client batches, with the expected live edge set
// maintained alongside (expiry = drop everything stamped before now−window).
type windowedStep struct {
	advanceMS int64
	insert    [][2]int32
	stamp     int64 // 0 = receive time
	delete    [][2]int32
}

// playWindowed applies the script to reg and mirrors it onto a stamp map,
// returning the expected live edge set after each window crossing settles.
func playWindowed(t *testing.T, reg *Registry, clk *fakeClock, name string,
	windowMS int64, stamps map[[2]int32]int64, script []windowedStep) *graph.Graph {
	t.Helper()
	for _, stp := range script {
		clk.advance(stp.advanceMS)
		if len(stp.insert) > 0 {
			var sv []int64
			ts := stp.stamp
			if ts == 0 {
				ts = clk.now()
			} else {
				sv = make([]int64, len(stp.insert))
				for i := range sv {
					sv[i] = ts
				}
			}
			if _, err := reg.ApplyEdgesStamped(name, stp.insert, sv, true, AckDurable); err != nil {
				t.Fatal(err)
			}
			for _, e := range stp.insert {
				stamps[e] = ts
			}
		}
		if len(stp.delete) > 0 {
			if _, err := reg.applyEdges(name, stp.delete, false); err != nil {
				t.Fatal(err)
			}
			for _, e := range stp.delete {
				delete(stamps, e)
			}
		}
		cutoff := clk.now() - windowMS
		for e, ts := range stamps {
			if ts < cutoff {
				delete(stamps, e)
			}
		}
		waitForM(t, reg, name, int64(len(stamps)))
	}
	var n int32
	edges := make([][2]int32, 0, len(stamps))
	for e := range stamps {
		edges = append(edges, e)
		if e[1]+1 > n {
			n = e[1] + 1
		}
	}
	info, err := reg.Info(name)
	if err != nil {
		t.Fatal(err)
	}
	if int32(info.N) > n {
		n = info.N
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// windowedScript is the shared timeline: stamped and receive-time inserts,
// client deletes, and three window crossings (the 60s window).
func windowedScript() []windowedStep {
	return []windowedStep{
		{advanceMS: 5_000, insert: [][2]int32{{0, 5}, {2, 5}}},
		{advanceMS: 10_000, insert: [][2]int32{{1, 6}, {4, 6}}, stamp: 990_000}, // back-stamped near the boundary
		{advanceMS: 20_000, insert: [][2]int32{{3, 7}}, delete: [][2]int32{{0, 1}}},
		{advanceMS: 30_000, insert: [][2]int32{{5, 6}}},  // t=+65s: creation edges and the back-stamp expire
		{advanceMS: 25_000, insert: [][2]int32{{2, 7}}},  // t=+90s: the +5s edges expire
		{advanceMS: 40_000, delete: [][2]int32{{5, 6}}},  // t=+130s: +20s and +65s edges expire
		{advanceMS: 100_000, insert: [][2]int32{{0, 3}}}, // t=+230s: everything older expires
	}
}

// TestWindowedRecoveryEquivalence kills a windowed durable registry at
// several points of the timeline and requires the reopened one to serve
// exactly the live edge set the WAL-recorded history implies — window
// config included — and to keep expiring afterwards.
func TestWindowedRecoveryEquivalence(t *testing.T) {
	const windowMS = 60_000
	for _, killAt := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("kill%d", killAt), func(t *testing.T) {
			clk := &fakeClock{}
			clk.set(1_000_000)
			dir := t.TempDir()
			base := gen.BarabasiAlbert(5, 2, 3)
			victim := durableRegistry(dir, WithClock(clk.now))
			if _, err := victim.AddWindowed("g", base, ModeLocal, windowMS*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			stamps := map[[2]int32]int64{}
			base.EachEdge(func(u, v int32) bool {
				stamps[[2]int32{u, v}] = clk.now()
				return true
			})
			want := playWindowed(t, victim, clk, "g", windowMS, stamps, windowedScript()[:killAt])
			victim.Close()

			reborn := durableRegistry(dir, WithClock(clk.now))
			defer reborn.Close()
			if _, err := reborn.Recover(); err != nil {
				t.Fatal(err)
			}
			assertRecovered(t, reborn, "g", ModeLocal, want)
			info, err := reborn.Info("g")
			if err != nil {
				t.Fatal(err)
			}
			if info.Window != "1m0s" {
				t.Fatalf("recovered window = %q, want 1m0s", info.Window)
			}

			// Retention keeps working on the recovered registry: play the
			// rest of the timeline and let it expire the old edges.
			want = playWindowed(t, reborn, clk, "g", windowMS, stamps, windowedScript()[killAt:])
			assertRecovered(t, reborn, "g", ModeLocal, want)
		})
	}
}

// TestWindowedExpiryCrashPoint kills the drain at the server-after-expiry
// point: the expiry batch was synthesized (and the in-memory sidecar already
// dropped the edges) but nothing reached the WAL. Recovery must come back
// with the edges still live — the synthesis was not durable — and re-expire
// them on the first post-recovery drain.
func TestWindowedExpiryCrashPoint(t *testing.T) {
	errBoom := errors.New("injected crash")
	clk := &fakeClock{}
	clk.set(1_000_000)
	dir := t.TempDir()
	base, _ := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})

	var armed atomic.Bool
	victim := durableRegistry(dir, WithClock(clk.now), WithCrashHook(func(g, p string) error {
		if armed.Load() && p == crashAfterExpiry {
			return errBoom
		}
		return nil
	}))
	if _, err := victim.AddWindowed("g", base, ModeLocal, time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.applyEdges("g", [][2]int32{{0, 2}}, true); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	clk.advance(2 * 60_000) // everything is past the window now
	// The next drain synthesizes the expiry batch and dies on the injected
	// crash; either our write triggers it or the idle ticker beat us to it.
	if _, err := victim.applyEdges("g", [][2]int32{{1, 3}}, true); !errors.Is(err, errBoom) && !errors.Is(err, ErrStorage) {
		t.Fatalf("crash not injected: err = %v", err)
	}
	victim.Close()

	// Reopen with the clock rolled back inside the window: nothing of the
	// aborted expiry was durable, so all four pre-crash edges must be live.
	clk.set(1_000_000 + 10_000)
	reborn := durableRegistry(dir, WithClock(clk.now))
	defer reborn.Close()
	if _, err := reborn.Recover(); err != nil {
		t.Fatal(err)
	}
	info, err := reborn.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.M != 4 {
		t.Fatalf("recovered m = %d, want 4 (aborted expiry must not be durable)", info.M)
	}
	// And crossing the window again now expires them for real.
	clk.advance(2 * 60_000)
	waitForM(t, reborn, "g", 0)
}

// TestApproxTemporalServing pins the approx tier against the sliding
// window: on a windowed graph under churn, algo=approx at a fixed seed is
// deterministic at every fixed applied sequence and never sees an expired
// edge. After each step settles, the windowed registry's approx answer must
// be bit-identical (results and telemetry) to that of a registry built
// fresh from only the live edges — a registry that has never held the
// expired ones, so any resurrection would break the equality.
func TestApproxTemporalServing(t *testing.T) {
	const windowMS = 60_000
	clk := &fakeClock{}
	clk.set(1_000_000)
	// Hub-heavy base so the estimator actually samples at this ε instead of
	// falling back to the exact kernel everywhere.
	base := gen.BarabasiAlbert(300, 8, 5)
	reg := durableRegistry(t.TempDir(), WithClock(clk.now))
	defer reg.Close()
	if _, err := reg.AddWindowed("g", base, ModeLocal, windowMS*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stamps := map[[2]int32]int64{}
	base.EachEdge(func(u, v int32) bool {
		stamps[[2]int32{u, v}] = clk.now()
		return true
	})

	q := TopKQuery{K: 20, Algo: AlgoApprox, Eps: 0.2, Seed: 11}
	// Every insert touches a vertex ≥ 300 (past the base), so none collides
	// with a pre-existing edge — a duplicate insert is a no-op and would not
	// re-stamp.
	script := []windowedStep{
		// Fresh hub-adjacent edges, then a back-stamped batch that will be
		// the first to cross the window.
		{advanceMS: 5_000, insert: [][2]int32{{0, 300}, {1, 300}, {2, 301}}},
		{advanceMS: 10_000, insert: [][2]int32{{0, 302}, {3, 302}}, stamp: 970_000},
		// t=+35s: the back-stamped batch crosses; the base stays live. A
		// client delete rides the same drain.
		{advanceMS: 20_000, delete: [][2]int32{{0, 300}}},
		// t=+70s: the base and the receive-stamped inserts all expire; only
		// this step's edges survive.
		{advanceMS: 35_000, insert: [][2]int32{{4, 303}, {5, 303}, {303, 304}}},
	}
	for i := range script {
		want := playWindowed(t, reg, clk, "g", windowMS, stamps, script[i:i+1])
		got, err := reg.TopKQ("g", q)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewRegistry()
		if _, err := fresh.Add("g", want, ModeLocal, 0); err != nil {
			t.Fatal(err)
		}
		wantRes, err := fresh.TopKQ("g", q)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, wantRes.Results) {
			t.Fatalf("step %d: windowed approx diverges from live-edge rebuild\n got %v\nwant %v",
				i, got.Results, wantRes.Results)
		}
		if got.ApproxSamples != wantRes.ApproxSamples || got.ApproxEpsAchieved != wantRes.ApproxEpsAchieved {
			t.Fatalf("step %d: approx telemetry diverges: %d/%v vs %d/%v", i,
				got.ApproxSamples, got.ApproxEpsAchieved, wantRes.ApproxSamples, wantRes.ApproxEpsAchieved)
		}
		// Same applied sequence, same seed: asking again is deterministic.
		again, err := reg.TopKQ("g", q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Results, got.Results) {
			t.Fatalf("step %d: repeat query at the same applied sequence diverges", i)
		}
	}
}

// TestWindowedReplicaEquivalence runs the windowed timeline on a shipped
// leader/follower pair: the follower receives expiry as ordinary delete
// batches in the WAL stream — it never consults a clock — and must be
// bitwise identical to the leader at every common applied sequence.
func TestWindowedReplicaEquivalence(t *testing.T) {
	const windowMS = 60_000
	for _, durable := range []bool{true, false} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			clk := &fakeClock{}
			clk.set(1_000_000)
			p := &shipPair{leadDir: t.TempDir()}
			p.leader = durableRegistry(p.leadDir, WithClock(clk.now))
			t.Cleanup(func() { p.leader.Close() })
			p.ts = httptest.NewServer(ship.NewHandler(p.leader))
			t.Cleanup(p.ts.Close)
			p.client = ship.NewClient(p.ts.URL, nil)
			folOpts := []RegistryOption{WithLeader(p.ts.URL), WithCheckpointPolicy(3, 1<<20)}
			if durable {
				p.folDir = t.TempDir()
				folOpts = append(folOpts, WithDataDir(p.folDir))
			}
			p.folReg = NewRegistry(folOpts...)
			t.Cleanup(func() { p.folReg.Close() })
			p.fol = ship.NewFollower(p.client, p.folReg)

			// The script's inserts all touch vertices ≥ 5, so a 5-vertex base
			// guarantees none of them collides with a pre-existing edge (a
			// duplicate insert is a no-op and would not re-stamp).
			base := gen.BarabasiAlbert(5, 2, 3)
			if _, err := p.leader.AddWindowed("g", base, ModeLocal, windowMS*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			stamps := map[[2]int32]int64{}
			base.EachEdge(func(u, v int32) bool {
				stamps[[2]int32{u, v}] = clk.now()
				return true
			})
			script := windowedScript()
			for i := range script {
				playWindowed(t, p.leader, clk, "g", windowMS, stamps, script[i:i+1])
				p.syncUntilCaughtUp(t, "g")
				info, err := p.leader.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				assertBitwiseEqual(t, p.leader, p.folReg, "g", ModeLocal, info.N)
			}
			// The follower adopted the window from the shipped checkpoint and
			// reports it, without ever synthesizing expiry itself.
			info, err := p.folReg.Info("g")
			if err != nil {
				t.Fatal(err)
			}
			if info.Window != "1m0s" {
				t.Fatalf("follower window = %q, want 1m0s", info.Window)
			}
			if info.ExpiryBatches != 0 {
				t.Fatalf("follower synthesized %d expiry batches; expiry is the leader's job", info.ExpiryBatches)
			}
		})
	}
}

// TestWindowOverflowRecoversUnwindowed: a checkpoint whose temporal section
// is intact and checksummed but names a window no time.Duration holds — 2⁶³
// ms, which int64 reads as negative, and 10¹³ ms, which overflows on the
// conversion to nanoseconds — recovers without a panic, serving the graph
// unwindowed with a recover_reason, the same exact answers, and writes.
func TestWindowOverflowRecoversUnwindowed(t *testing.T) {
	for _, windowMS := range []uint64{1 << 63, 1e13} {
		t.Run(fmt.Sprint(windowMS), func(t *testing.T) {
			clk := &fakeClock{}
			clk.set(1_000_000)
			dir := t.TempDir()
			base := gen.BarabasiAlbert(60, 3, 9)
			victim := durableRegistry(dir, WithClock(clk.now))
			if _, err := victim.AddWindowed("g", base, ModeLocal, time.Minute); err != nil {
				t.Fatal(err)
			}
			if _, err := victim.applyEdges("g", [][2]int32{{0, 59}}, true); err != nil {
				t.Fatal(err)
			}
			victim.Close()

			paths, err := filepath.Glob(filepath.Join(dir, "*", "snapshot.ebws"))
			if err != nil || len(paths) != 1 {
				t.Fatalf("snapshot files %v, err %v", paths, err)
			}
			st, rec, err := store.Open(filepath.Dir(paths[0]))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Stamps == nil {
				t.Fatalf("the checkpoint carries no temporal section (err %v): the test lost its subject", rec.StampsErr)
			}
			img := store.EncodeSnapshotFull(rec.Graph, rec.Meta, rec.State, nil,
				&store.TemporalState{WindowMS: windowMS, Stamps: rec.Stamps.Stamps})
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(paths[0], img, 0o644); err != nil {
				t.Fatal(err)
			}

			reborn := durableRegistry(dir, WithClock(clk.now))
			defer reborn.Close()
			if _, err := reborn.Recover(); err != nil {
				t.Fatal(err)
			}
			info, err := reborn.Info("g")
			if err != nil {
				t.Fatal(err)
			}
			if info.Window != "" || !strings.Contains(info.RecoverReason, "serving unwindowed") ||
				!strings.Contains(info.RecoverReason, "exceeds the longest duration") {
				t.Fatalf("recovered window %q, reason %q; want unwindowed with the window named", info.Window, info.RecoverReason)
			}
			want := stateAfter(base, []scriptBatch{{insert: true, edges: [][2]int32{{0, 59}}}}, 1)
			assertRecovered(t, reborn, "g", ModeLocal, want)
			clk.advance(10 * 60_000) // past the old window: nothing expires now
			if _, err := reborn.applyEdges("g", [][2]int32{{1, 58}}, true); err != nil {
				t.Fatal(err)
			}
			if info, _ := reborn.Info("g"); info.M != want.NumEdges()+1 || info.ExpiredEdges != 0 {
				t.Fatalf("after a write: m=%d expired=%d, want m=%d and nothing expired", info.M, info.ExpiredEdges, want.NumEdges()+1)
			}
		})
	}
}
