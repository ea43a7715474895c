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
	"reflect"
	"strings"
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
	folOpts := []RegistryOption{WithLeader(p.ts.URL), WithBuildWorkers(2), WithCheckpointPolicy(3, 1<<20)}
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
// possibly differently-shaped overlays — to agree exactly between leader
// and follower.
func assertBitwiseEqual(t *testing.T, leader, follower *Registry, name, mode string, n int32) {
	t.Helper()
	algo := AlgoScores
	if mode == ModeLazy {
		algo = AlgoLazy
	}
	for _, k := range []int{1, 5, 10} {
		lr, err := leader.topK(name, k, algo, 0)
		if err != nil {
			t.Fatalf("leader TopK(k=%d,%s): %v", k, algo, err)
		}
		fr, err := follower.topK(name, k, algo, 0)
		if err != nil {
			t.Fatalf("follower TopK(k=%d,%s): %v", k, algo, err)
		}
		if !reflect.DeepEqual(lr.Results, fr.Results) {
			t.Fatalf("k=%d algo=%s diverged\nleader   %v\nfollower %v", k, algo, lr.Results, fr.Results)
		}
	}
	if mode != ModeLocal {
		return
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
	p.folReg = NewRegistry(WithLeader(p.ts.URL), WithDataDir(folDir), WithBuildWorkers(2), WithCheckpointPolicy(3, 1<<20))
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
	if _, err := p.folReg.topK("g", 5, AlgoOpt, 0); err != nil {
		t.Fatalf("read on follower: %v", err)
	}

	srv := New(WithRegistryOptions(WithLeader(p.ts.URL), WithBuildWorkers(2)))
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
		if _, err := reborn.topK(name, 5, AlgoOpt, 0); err != nil {
			t.Fatalf("healthy graph %q unreadable after partial recovery: %v", name, err)
		}
	}
	if _, err := reborn.Info("bad"); err == nil {
		t.Fatal("corrupt graph registered anyway")
	}
}

// TestRecoverLazyKFallbackReason: a persisted lazy graph whose header
// carries an invalid maintained k still boots (fallback k=10) but says so
// in recover_reason instead of silently changing the serving contract.
func TestRecoverLazyKFallbackReason(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(40, 3, 12)
	gdir := store.GraphDir(dir, "g")
	snap := store.EncodeSnapshot(g, store.SnapshotMeta{Mode: 1 /* lazy */, LazyK: 0, Seq: 0})
	if err := store.InstallSnapshot(gdir, snap); err != nil {
		t.Fatal(err)
	}

	reg := durableRegistry(dir)
	defer reg.Close()
	infos, err := reg.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(infos) != 1 {
		t.Fatalf("recovered %d graphs, want 1", len(infos))
	}
	if !strings.Contains(infos[0].RecoverReason, "lazy-k 0 invalid") {
		t.Fatalf("recover_reason %q does not record the lazy-k fallback", infos[0].RecoverReason)
	}
	res, err := reg.topK("g", 10, AlgoLazy, 0)
	if err != nil {
		t.Fatalf("TopK on fallback graph: %v", err)
	}
	if len(res.Results) == 0 {
		t.Fatal("fallback graph served no results")
	}
}

// TestRetryAfterDerivation: a full admission queue answers with a
// BacklogError whose RetryAfter reflects the actual backlog (queue depth ×
// coalescing window), bounded to [1s, 60s] — and the error still matches
// the ErrBacklog sentinel clients already check for.
func TestRetryAfterDerivation(t *testing.T) {
	reg := NewRegistry(WithBuildWorkers(1), WithWriteQueue(2), WithFlushInterval(500*time.Millisecond))
	defer reg.Close()
	if _, err := reg.Add("g", gen.BarabasiAlbert(40, 3, 1), ModeLocal, 10); err != nil {
		t.Fatal(err)
	}
	// Async writes pile up behind the first drain's coalescing window until
	// the queue rejects one.
	var be *BacklogError
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := reg.applyEdgesAck("g", [][2]int32{{0, 39}}, true, AckAsync)
		if errors.As(err, &be) {
			if !errors.Is(err, ErrBacklog) {
				t.Fatalf("BacklogError does not match ErrBacklog: %v", err)
			}
			break
		}
		if err != nil {
			t.Fatalf("ApplyEdgesAck: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	if be.RetryAfter < time.Second || be.RetryAfter > 60*time.Second {
		t.Fatalf("RetryAfter %v outside [1s, 60s]", be.RetryAfter)
	}
	if be.Graph != "g" || be.Capacity != 2 {
		t.Fatalf("BacklogError context = %+v", be)
	}
}
