package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/server"
)

// TestRunRejectsBadPreload: run must fail fast on an unknown dataset or an
// invalid maintenance mode instead of starting a half-configured server.
func TestRunRejectsBadPreload(t *testing.T) {
	err := run(config{addr: "127.0.0.1:0", preload: "not-a-dataset", mode: "local"})
	if err == nil || !strings.Contains(err.Error(), "not-a-dataset") {
		t.Fatalf("unknown dataset: err = %v", err)
	}
	err = run(config{addr: "127.0.0.1:0", preload: "ir", mode: "bogus-mode"})
	if err == nil || !strings.Contains(err.Error(), "bogus-mode") {
		t.Fatalf("bad mode: err = %v", err)
	}
}

// TestSetupRecoversDataDir: the boot path must reload graphs persisted by a
// previous process, and a preload of an already-recovered name must be
// skipped rather than fatal.
func TestSetupRecoversDataDir(t *testing.T) {
	dir := t.TempDir()

	// "Previous process": a durable registry with one graph and an update.
	reg := server.NewRegistry(server.WithDataDir(dir))
	g := graph.MustFromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}})
	if _, err := reg.Add("demo", g, server.ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ApplyEdgesStamped("demo", [][2]int32{{1, 3}}, nil, true, server.AckDurable); err != nil {
		t.Fatal(err)
	}
	// Stand-in for process death: releases the store locks (content is
	// already durable; a real kill would release them via the kernel).
	reg.Close()

	srv, err := setup(config{dataDir: dir, ckptEvery: 4})
	if err != nil {
		t.Fatalf("setup with data dir: %v", err)
	}
	info, err := srv.Registry().Info("demo")
	if err != nil {
		t.Fatalf("recovered graph missing: %v", err)
	}
	if info.M != 6 || !info.Persisted || info.WALSeq != 1 {
		t.Fatalf("recovered info = %+v, want m=6 persisted wal_seq=1", info)
	}
	// One post-Add update and no checkpoint: the snapshot carries no
	// maintainer state, so this boot went through the rebuild path.
	if info.RecoverPath != "rebuild" || info.RecoverReason == "" {
		t.Fatalf("recover_path=%q reason=%q, want rebuild with a reason", info.RecoverPath, info.RecoverReason)
	}
}

// TestSetupFastRecovery: once the previous process checkpointed past the
// policy threshold, the next boot imports the snapshot's maintainer state
// instead of recomputing it — Info must report recover_path=fast and the
// recovered graph must answer queries.
func TestSetupFastRecovery(t *testing.T) {
	dir := t.TempDir()
	reg := server.NewRegistry(server.WithDataDir(dir), server.WithCheckpointPolicy(2, 1<<20))
	g := graph.MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {4, 5}})
	if _, err := reg.Add("demo", g, server.ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	// Three batches against checkpoint-every-2: a state-carrying checkpoint
	// lands at batch 2, batch 3 stays in the WAL tail for replay.
	for _, e := range [][2]int32{{1, 3}, {0, 4}, {2, 5}} {
		if _, err := reg.ApplyEdgesStamped("demo", [][2]int32{e}, nil, true, server.AckDurable); err != nil {
			t.Fatal(err)
		}
	}
	reg.Close()

	srv, err := setup(config{dataDir: dir, ckptEvery: 2})
	if err != nil {
		t.Fatalf("setup with data dir: %v", err)
	}
	info, err := srv.Registry().Info("demo")
	if err != nil {
		t.Fatalf("recovered graph missing: %v", err)
	}
	if info.RecoverPath != "fast" || info.RecoverReason != "" {
		t.Fatalf("recover_path=%q reason=%q, want fast with no reason", info.RecoverPath, info.RecoverReason)
	}
	if info.M != 9 || info.WALSeq != 3 {
		t.Fatalf("recovered info = %+v, want m=9 wal_seq=3", info)
	}
	if _, err := srv.Registry().TopKQ("demo", server.TopKQuery{K: 3, Algo: "opt"}); err != nil {
		t.Fatalf("TopK after fast recovery: %v", err)
	}
}

// TestSetupRejectsCorruptDataDir: a data directory whose contents cannot be
// recovered must fail the boot loudly, never serve partial state silently.
func TestSetupRejectsCorruptDataDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("not a graph dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := setup(config{dataDir: dir}); err == nil {
		t.Fatal("setup accepted a data dir with unrecognized contents")
	}
}

// TestPprofListener: -pprof's listener answers /debug/pprof/ with 200, the
// API handler answers the same path with 404, and both listeners close when
// serve's context ends.
func TestPprofListener(t *testing.T) {
	free := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	apiAddr, pprofAddr := free(), free()
	api := &http.Server{Addr: apiAddr, Handler: server.New().Handler()}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, api, pprofServer(pprofAddr)) }()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(addr string) (int, error) {
		resp, err := client.Get("http://" + addr + "/debug/pprof/")
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	for addr, want := range map[string]int{pprofAddr: http.StatusOK, apiAddr: http.StatusNotFound} {
		code, err := get(addr)
		for i := 0; err != nil && i < 200; i++ { // the listener may not be up yet
			time.Sleep(10 * time.Millisecond)
			code, err = get(addr)
		}
		if err != nil || code != want {
			t.Fatalf("GET %s/debug/pprof/: %d, %v; want %d", addr, code, err, want)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after its context ended", err)
	}
	for _, addr := range []string{apiAddr, pprofAddr} {
		if _, err := get(addr); err == nil {
			t.Errorf("%s still answers after shutdown", addr)
		}
	}
}
