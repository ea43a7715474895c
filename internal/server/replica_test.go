package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ship"
	"repro/internal/store"
)

// The replication suite (DESIGN.md §13): a follower registry fed through
// the real shipping stack — ship handler over httptest, ship client,
// ship.Follower — must answer maintained-state queries bitwise identically
// to the leader at the same applied WAL sequence, survive leader restarts,
// reject local writes, and report staleness. Runs under -race in CI.

// shipPair wires a follower registry to a leader registry through an HTTP
// shipping server, returning the pieces tests drive directly.
type shipPair struct {
	leader  *Registry
	ts      *httptest.Server
	client  *ship.Client
	folReg  *Registry
	fol     *ship.Follower
	folDir  string // "" for a memory-only follower
	leadDir string
}

func newShipPair(t *testing.T, leadDir, folDir string) *shipPair {
	t.Helper()
	p := &shipPair{leadDir: leadDir, folDir: folDir}
	p.leader = durableRegistry(leadDir)
	t.Cleanup(func() { p.leader.Close() })
	p.ts = httptest.NewServer(ship.NewHandler(p.leader))
	t.Cleanup(p.ts.Close)
	p.client = ship.NewClient(p.ts.URL, nil)
	folOpts := []RegistryOption{WithLeader(p.ts.URL), WithCheckpointPolicy(3, 1<<20)}
	if folDir != "" {
		folOpts = append(folOpts, WithDataDir(folDir))
	}
	p.folReg = NewRegistry(folOpts...)
	t.Cleanup(func() { p.folReg.Close() })
	p.fol = ship.NewFollower(p.client, p.folReg)
	return p
}

// restartLeader simulates a leader crash: the old registry and shipping
// endpoint go away, a fresh registry recovers from the same directory and a
// fresh endpoint serves it, and the client is repointed.
func (p *shipPair) restartLeader(t *testing.T) {
	t.Helper()
	p.ts.Close()
	if err := p.leader.Close(); err != nil {
		t.Fatalf("close leader: %v", err)
	}
	p.leader = durableRegistry(p.leadDir)
	t.Cleanup(func() { p.leader.Close() })
	if _, err := p.leader.Recover(); err != nil {
		t.Fatalf("recover leader: %v", err)
	}
	p.ts = httptest.NewServer(ship.NewHandler(p.leader))
	t.Cleanup(p.ts.Close)
	p.client.SetBase(p.ts.URL)
}

// syncUntilCaughtUp drives SyncOnce until the follower's applied sequence
// reaches the leader's durable sequence for name.
func (p *shipPair) syncUntilCaughtUp(t *testing.T, name string) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(20 * time.Second)
	var lastErr error
	for {
		lastErr = p.fol.SyncOnce(ctx)
		st, err := p.leader.ShipStatus(name)
		if err != nil {
			t.Fatalf("ShipStatus: %v", err)
		}
		if seq, ok := p.folReg.ReplicaSeq(name); ok && seq >= st.Seq {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up on %q (last sync error: %v)", name, lastErr)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertBitwiseEqual requires the maintained-state read paths — the ones
// that are deterministic replays of applyLocked, not recomputes over
// possibly differently-shaped overlays (in ModeLazy, the exact scores
// beside the recomputed stale ones) — to agree exactly between leader and
// follower.
func assertBitwiseEqual(t *testing.T, leader, follower *Registry, name, mode string, n int32) {
	t.Helper()
	algo := AlgoScores
	for _, k := range []int{1, 5, 10} {
		lr, err := leader.topK(name, k, algo)
		if err != nil {
			t.Fatalf("leader TopK(k=%d,%s): %v", k, algo, err)
		}
		fr, err := follower.topK(name, k, algo)
		if err != nil {
			t.Fatalf("follower TopK(k=%d,%s): %v", k, algo, err)
		}
		if !reflect.DeepEqual(lr.Results, fr.Results) {
			t.Fatalf("k=%d algo=%s diverged\nleader   %v\nfollower %v", k, algo, lr.Results, fr.Results)
		}
	}
	for v := int32(0); v < n; v++ {
		lv, err := leader.EgoBetweenness(name, v)
		if err != nil {
			t.Fatalf("leader vertex %d: %v", v, err)
		}
		fv, err := follower.EgoBetweenness(name, v)
		if err != nil {
			t.Fatalf("follower vertex %d: %v", v, err)
		}
		if lv.CB != fv.CB {
			t.Fatalf("vertex %d: leader cb %v, follower cb %v", v, lv.CB, fv.CB)
		}
	}
}

// TestReplicaEquivalence is the core property: stream randomized batches
// into the leader, sync the follower at interleaved points, and require
// bitwise-equal maintained state at every common applied sequence — plus a
// clean-recompute check at the end (both modes, durable and memory-only
// followers).
func TestReplicaEquivalence(t *testing.T) {
	const nBatches = 24
	for _, mode := range []string{ModeLocal, ModeLazy} {
		for _, durable := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/durable=%v", mode, durable), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(9, 0x5417))
				base := gen.BarabasiAlbert(70, 3, 9)
				script := makeScript(rng, graph.DynFromGraph(base), nBatches)
				folDir := ""
				if durable {
					folDir = t.TempDir()
				}
				p := newShipPair(t, t.TempDir(), folDir)
				if _, err := p.leader.Add("g", base, mode, 10); err != nil {
					t.Fatal(err)
				}

				for i, sb := range script {
					if _, err := p.leader.applyEdges("g", sb.edges, sb.insert); err != nil {
						t.Fatal(err)
					}
					if i%6 != 5 {
						continue
					}
					p.syncUntilCaughtUp(t, "g")
					assertBitwiseEqual(t, p.leader, p.folReg, "g", mode, base.NumVertices())
				}
				p.syncUntilCaughtUp(t, "g")
				assertBitwiseEqual(t, p.leader, p.folReg, "g", mode, base.NumVertices())

				// And the follower's answers are right, not just identical:
				// every algo agrees with a from-scratch recompute.
				want := stateAfter(base, script, nBatches)
				assertRecovered(t, p.folReg, "g", mode, want)

				// The follower is marked as a replica and reports no lag
				// once caught up.
				info, err := p.folReg.Info("g")
				if err != nil {
					t.Fatal(err)
				}
				if !info.Replica {
					t.Fatal("follower GraphInfo.Replica = false")
				}
				if info.ReplicaLagSeq != 0 {
					t.Fatalf("caught-up follower reports lag %d", info.ReplicaLagSeq)
				}
			})
		}
	}
}

// TestReplicaLeaderRestart kills the leader (registry closed, endpoint
// gone) after the follower is mid-stream, restarts it from disk, and
// requires the follower to resume and converge — including across a
// checkpoint the restarted leader takes, which supersedes the segment the
// follower was tailing.
func TestReplicaLeaderRestart(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0xDEAD))
	base := gen.BarabasiAlbert(60, 3, 4)
	script := makeScript(rng, graph.DynFromGraph(base), 20)
	p := newShipPair(t, t.TempDir(), t.TempDir())
	if _, err := p.leader.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	for _, sb := range script[:8] {
		if _, err := p.leader.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
	}
	p.syncUntilCaughtUp(t, "g")

	p.restartLeader(t)
	for _, sb := range script[8:] {
		if _, err := p.leader.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
	}
	p.syncUntilCaughtUp(t, "g")
	assertBitwiseEqual(t, p.leader, p.folReg, "g", ModeLocal, base.NumVertices())
	assertRecovered(t, p.folReg, "g", ModeLocal, stateAfter(base, script, len(script)))
}

// TestReplicaFollowerRestart closes the follower registry and reopens it
// from its own disk: recovery adopts the local state (no re-bootstrap) and
// tailing resumes from the adopted sequence.
func TestReplicaFollowerRestart(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 0xF01))
	base := gen.BarabasiAlbert(60, 3, 6)
	script := makeScript(rng, graph.DynFromGraph(base), 16)
	folDir := t.TempDir()
	p := newShipPair(t, t.TempDir(), folDir)
	if _, err := p.leader.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	for _, sb := range script[:10] {
		if _, err := p.leader.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
	}
	p.syncUntilCaughtUp(t, "g")

	if err := p.folReg.Close(); err != nil {
		t.Fatal(err)
	}
	p.folReg = NewRegistry(WithLeader(p.ts.URL), WithDataDir(folDir), WithCheckpointPolicy(3, 1<<20))
	t.Cleanup(func() { p.folReg.Close() })
	infos, err := p.folReg.Recover()
	if err != nil {
		t.Fatalf("follower recover: %v", err)
	}
	if len(infos) != 1 || !infos[0].Replica {
		t.Fatalf("recovered follower infos = %+v, want one replica", infos)
	}
	p.fol = ship.NewFollower(p.client, p.folReg)

	for _, sb := range script[10:] {
		if _, err := p.leader.applyEdges("g", sb.edges, sb.insert); err != nil {
			t.Fatal(err)
		}
	}
	p.syncUntilCaughtUp(t, "g")
	assertBitwiseEqual(t, p.leader, p.folReg, "g", ModeLocal, base.NumVertices())
	assertRecovered(t, p.folReg, "g", ModeLocal, stateAfter(base, script, len(script)))
}

// TestReplicaCommitFailurePoisons: a follower commits shipped batches
// through the leader's commit path, crash points included, so a failure
// there poisons the follower's pipeline exactly as it would a leader's: the
// sync reports ErrStorage, reads keep answering the last published epoch,
// later syncs keep failing, GraphInfo names the cause — and a restart on the
// same directory recovers the durable batches and catches up bitwise.
func TestReplicaCommitFailurePoisons(t *testing.T) {
	errBoom := errors.New("follower disk on fire")
	var armed atomic.Bool
	base := gen.BarabasiAlbert(60, 3, 9)
	folDir := t.TempDir()
	p := newShipPair(t, t.TempDir(), folDir)
	folOpts := []RegistryOption{WithLeader(p.ts.URL), WithDataDir(folDir), WithCheckpointPolicy(3, 1<<20)}
	p.folReg.Close()
	p.folReg = NewRegistry(append(folOpts, WithCrashHook(func(g, point string) error {
		if armed.Load() && point == crashBeforePublish {
			return errBoom
		}
		return nil
	}))...)
	t.Cleanup(func() { p.folReg.Close() })
	p.fol = ship.NewFollower(p.client, p.folReg)
	if _, err := p.leader.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	p.syncUntilCaughtUp(t, "g")
	before, err := p.folReg.topK("g", 10, AlgoScores)
	if err != nil {
		t.Fatal(err)
	}

	missing := [2]int32{0, 1}
	for slices.Contains(base.Neighbors(missing[0]), missing[1]) {
		missing[1]++
	}
	if _, err := p.leader.applyEdges("g", [][2]int32{missing}, true); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	ctx := context.Background()
	if err := p.fol.SyncOnce(ctx); !errors.Is(err, ErrStorage) || !errors.Is(err, errBoom) {
		t.Fatalf("sync past a failed follower commit: %v", err)
	}
	armed.Store(false)
	after, err := p.folReg.topK("g", 10, AlgoScores)
	if err != nil {
		t.Fatal(err)
	}
	if after.Epoch != before.Epoch || !reflect.DeepEqual(after.Results, before.Results) {
		t.Fatalf("poisoned follower serves epoch %d %v, want the previous epoch %d %v",
			after.Epoch, after.Results, before.Epoch, before.Results)
	}
	info, err := p.folReg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Poisoned, errBoom.Error()) {
		t.Fatalf("GraphInfo.Poisoned = %q, want the cause %q", info.Poisoned, errBoom)
	}
	if err := p.fol.SyncOnce(ctx); !errors.Is(err, ErrStorage) {
		t.Fatalf("second sync on a poisoned follower: %v, want ErrStorage", err)
	}

	if err := p.folReg.Close(); err != nil {
		t.Fatal(err)
	}
	p.folReg = NewRegistry(folOpts...)
	t.Cleanup(func() { p.folReg.Close() })
	if _, err := p.folReg.Recover(); err != nil {
		t.Fatalf("follower recover: %v", err)
	}
	p.fol = ship.NewFollower(p.client, p.folReg)
	p.syncUntilCaughtUp(t, "g")
	assertBitwiseEqual(t, p.leader, p.folReg, "g", ModeLocal, base.NumVertices())
	if info, err := p.folReg.Info("g"); err != nil || info.Poisoned != "" {
		t.Fatalf("restarted follower: info %+v err %v, want healthy", info, err)
	}
}

// TestReplicaReadOnly: a following registry rejects every client mutation
// with ErrReadOnly, and the HTTP layer turns that into 403 plus an X-Leader
// hint; reads keep working.
func TestReplicaReadOnly(t *testing.T) {
	base := gen.BarabasiAlbert(40, 3, 2)
	p := newShipPair(t, t.TempDir(), "")
	if _, err := p.leader.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	p.syncUntilCaughtUp(t, "g")

	if _, err := p.folReg.Add("h", base, ModeLocal, 10); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Add on follower: %v, want ErrReadOnly", err)
	}
	if err := p.folReg.Remove("g"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Remove on follower: %v, want ErrReadOnly", err)
	}
	if _, err := p.folReg.applyEdges("g", [][2]int32{{0, 1}}, true); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ApplyEdges on follower: %v, want ErrReadOnly", err)
	}
	if _, err := p.folReg.topK("g", 5, AlgoOpt); err != nil {
		t.Fatalf("read on follower: %v", err)
	}

	srv := New(WithRegistryOptions(WithLeader(p.ts.URL)))
	defer srv.Registry().Close()
	fol2 := ship.NewFollower(p.client, srv.Registry())
	if err := fol2.SyncOnce(context.Background()); err != nil {
		t.Fatalf("HTTP follower sync: %v", err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	body, _ := json.Marshal(map[string]any{"edges": [][2]int32{{0, 1}}})
	resp, err := http.Post(hts.URL+"/graphs/g/edges", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("write on follower: status %d, want 403", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Leader"); got != p.ts.URL {
		t.Fatalf("X-Leader = %q, want %q", got, p.ts.URL)
	}
}

// TestReplicaLagFields: GraphInfo surfaces how far behind a follower is in
// batches (from the last shipping poll) and for how long it has been
// behind, and both clear once it catches up.
func TestReplicaLagFields(t *testing.T) {
	base := gen.BarabasiAlbert(40, 3, 3)
	p := newShipPair(t, t.TempDir(), "")
	if _, err := p.leader.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	p.syncUntilCaughtUp(t, "g")
	seq, _ := p.folReg.ReplicaSeq("g")

	p.folReg.NoteReplica("g", seq+5, false)
	time.Sleep(2 * time.Millisecond)
	info, err := p.folReg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplicaLagSeq != 5 {
		t.Fatalf("ReplicaLagSeq = %d, want 5", info.ReplicaLagSeq)
	}
	if info.ReplicaLagMS <= 0 {
		t.Fatalf("ReplicaLagMS = %v, want > 0", info.ReplicaLagMS)
	}

	p.folReg.NoteReplica("g", seq, true)
	info, err = p.folReg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplicaLagSeq != 0 || info.ReplicaLagMS != 0 {
		t.Fatalf("caught-up lag = (%d, %v), want (0, 0)", info.ReplicaLagSeq, info.ReplicaLagMS)
	}
}

// TestApplyReplicaContract: shipped batches must continue the local
// sequence exactly — gaps, duplicates, and rewinds are rejected before any
// state changes, and a non-replica entry refuses shipped batches entirely.
func TestApplyReplicaContract(t *testing.T) {
	base := gen.BarabasiAlbert(40, 3, 5)
	p := newShipPair(t, t.TempDir(), "")
	if _, err := p.leader.Add("g", base, ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.leader.applyEdges("g", [][2]int32{{0, 39}}, true); err != nil {
		t.Fatal(err)
	}
	p.syncUntilCaughtUp(t, "g")
	seq, _ := p.folReg.ReplicaSeq("g")

	for _, bad := range []uint64{seq, seq + 2} { // duplicate, gap
		err := p.folReg.ApplyReplica("g", []store.Batch{{Seq: bad, Insert: true, Edges: [][2]int32{{1, 2}}}})
		if err == nil {
			t.Fatalf("ApplyReplica accepted discontinuous seq %d (local %d)", bad, seq)
		}
	}
	if got, _ := p.folReg.ReplicaSeq("g"); got != seq {
		t.Fatalf("rejected batches moved the sequence: %d -> %d", seq, got)
	}

	// A registry that follows no leader has no replica entries.
	if err := p.leader.ApplyReplica("g", []store.Batch{{Seq: 99}}); err == nil {
		t.Fatal("ApplyReplica on a leader entry succeeded")
	}
}

// TestRecoverPartialFailure: one broken graph directory must not take down
// the boot — the healthy graphs recover and serve, and the failure is
// reported per graph in a *RecoverError that still unwraps sentinel-wise.
func TestRecoverPartialFailure(t *testing.T) {
	dir := t.TempDir()
	reg := durableRegistry(dir)
	for _, name := range []string{"good-a", "bad", "good-b"} {
		if _, err := reg.Add(name, gen.BarabasiAlbert(40, 3, 8), ModeLocal, 10); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one graph's snapshot beyond recovery (the WAL too, so no
	// rebuild path can save it).
	badDir := store.GraphDir(dir, "bad")
	for _, path := range []string{store.SnapshotPath(badDir), store.WALPath(badDir)} {
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reborn := durableRegistry(dir)
	defer reborn.Close()
	infos, err := reborn.Recover()
	if err == nil {
		t.Fatal("Recover reported success over a corrupt graph")
	}
	var recErr *RecoverError
	if !errors.As(err, &recErr) {
		t.Fatalf("Recover error %T, want *RecoverError: %v", err, err)
	}
	if len(recErr.Failures) != 1 || recErr.Failures[0].Graph != "bad" {
		t.Fatalf("failures = %+v, want exactly graph %q", recErr.Failures, "bad")
	}
	if len(infos) != 2 {
		t.Fatalf("recovered %d graphs, want 2 healthy ones", len(infos))
	}
	for _, name := range []string{"good-a", "good-b"} {
		if _, err := reborn.topK(name, 5, AlgoOpt); err != nil {
			t.Fatalf("healthy graph %q unreadable after partial recovery: %v", name, err)
		}
	}
	if _, err := reborn.Info("bad"); err == nil {
		t.Fatal("corrupt graph registered anyway")
	}
}

// TestRecoverRetiredLazyPayload: a data directory whose checkpoint carries
// the retired LazyTopK state payload (internal/store's
// v2_lazy_compacted.snap, a lazy-mode graph with k = 2 in the header's
// retired slot) recovers through the rebuild path with a reason naming the
// payload, and then answers like ModeLocal — every k, every vertex, the
// kernel's bits — and after a batch, too.
func TestRecoverRetiredLazyPayload(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("..", "store", "testdata", "v2_lazy_compacted.snap"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := store.InstallSnapshot(store.GraphDir(dir, "g"), img); err != nil {
		t.Fatal(err)
	}
	reg, gi := recoverDir(t, dir)
	defer reg.Close()
	if gi.Mode != ModeLazy || gi.RecoverPath != "rebuild" || !strings.Contains(gi.RecoverReason, "retired lazy") {
		t.Fatalf("mode=%q recover_path=%q reason=%q, want lazy, rebuild, naming the retired payload", gi.Mode, gi.RecoverPath, gi.RecoverReason)
	}
	g, _, err := store.DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	assertServesExact(t, reg, "g", g)
	mirror := graph.DynFromGraph(g)
	if _, err := reg.applyEdges("g", [][2]int32{{0, 4}, {3, 5}}, true); err != nil {
		t.Fatal(err)
	}
	_ = mirror.InsertEdge(0, 4)
	_ = mirror.InsertEdge(3, 5)
	assertServesExact(t, reg, "g", mirror.Freeze(1))
}

// TestRetryAfterDerivation: a full admission queue fails with an error that
// matches ErrBacklog and names the graph and the queue capacity, and the
// HTTP layer answers the overflow 429 with Retry-After: 1 — one second,
// whatever the backlog.
func TestRetryAfterDerivation(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	reg := s.Registry()
	reg.queueCap = 2
	defer reg.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := reg.Add("g", gen.BarabasiAlbert(40, 3, 1), ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	e, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}
	// Under the entry lock the writer parks in its first commit, so async
	// writes pile up until the queue rejects them: the writer holds at most
	// one group of capacity batches, the queue another capacity.
	e.mu.Lock()
	for i := 0; i < 8 && err == nil; i++ {
		_, err = reg.applyEdgesAck("g", [][2]int32{{0, 39}}, true, AckAsync)
	}
	var resp *http.Response
	for i := 0; i < 8 && (resp == nil || resp.StatusCode == http.StatusAccepted); i++ {
		r, herr := http.Post(ts.URL+"/graphs/g/edges?ack=async", "application/json", strings.NewReader(`{"edges":[[0,39]]}`))
		if herr != nil {
			e.mu.Unlock()
			t.Fatal(herr)
		}
		r.Body.Close()
		resp = r
	}
	e.mu.Unlock()
	if !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow admission: err = %v, want ErrBacklog", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"g"`) || !strings.Contains(msg, "capacity 2") {
		t.Fatalf("backlog error %q does not name the graph and its capacity", msg)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("overflow over HTTP: status %d Retry-After %q, want 429 and 1",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}
