// Command egobwd is the ego-betweenness query daemon: it serves the
// internal/server HTTP/JSON API, holding any number of named graphs in
// memory and answering top-k / per-vertex queries lock-free against
// immutable snapshots while edge updates stream in.
//
// Usage:
//
//	egobwd                            # serve on :8080, empty registry
//	egobwd -addr :9090                # another port
//	egobwd -preload dblp,ir           # pre-register dataset analogs
//	egobwd -preload dblp -mode lazy -k 50
//	egobwd -build-workers 8           # snapshot-build worker budget
//	egobwd -data-dir /var/lib/egobwd  # durable graphs: WAL + snapshots,
//	                                  # recovered on restart
//	egobwd -data-dir d -checkpoint-every 64 -checkpoint-bytes 16777216
//	egobwd -write-queue 256 -flush-interval 2ms
//	                                  # write pipeline: admission-queue
//	                                  # capacity and group-commit window
//	egobwd -compact-depth 4 -compact-dirty 0.1
//	                                  # overlay compaction policy: flatten
//	                                  # the snapshot's delta chain sooner
//	egobwd -window 6h                 # temporal serving: graphs default to a
//	                                  # 6-hour sliding window; edges older
//	                                  # than that are expired through WAL-
//	                                  # recorded delete batches
//	egobwd -follow http://leader:8080 # read-only follower: bootstrap every
//	                                  # graph from the leader's checkpoints,
//	                                  # tail its WAL stream, serve reads at
//	                                  # bounded staleness; writes answer 403
//	                                  # with the leader's address
//
// Walkthrough (see README.md for the full API):
//
//	curl -X POST localhost:8080/graphs \
//	    -d '{"name":"demo","generator":{"model":"ba","n":5000,"mper":4,"seed":7}}'
//	curl 'localhost:8080/graphs/demo/topk?k=10'
//	curl -X POST localhost:8080/graphs/demo/edges -d '{"edges":[[1,4999]]}'
//	curl 'localhost:8080/graphs/demo/stats'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/ship"
)

// config collects the daemon's flags.
type config struct {
	addr         string
	preload      string
	mode         string
	k            int
	buildWorkers int
	dataDir      string
	ckptEvery    int
	ckptBytes    int64
	writeQueue   int
	flushEvery   time.Duration
	compactDepth int
	compactDirty float64
	window       time.Duration
	follow       string
	followEvery  time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.preload, "preload", "", "comma-separated dataset names to register at startup (see egobw -dataset)")
	flag.StringVar(&cfg.mode, "mode", server.ModeLocal, "maintenance mode for preloaded graphs: local or lazy")
	flag.IntVar(&cfg.k, "k", 10, "maintained k for lazy-mode preloads")
	flag.IntVar(&cfg.buildWorkers, "build-workers", 0, "worker budget for snapshot builds (initial score computation and per-batch CSR export); 0 = GOMAXPROCS")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "directory for durable graphs (per-graph WAL + binary CSR snapshots); graphs recover on restart. Empty = in-memory only")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 0, "fold the WAL into a fresh snapshot after this many update batches (0 = default 16)")
	flag.Int64Var(&cfg.ckptBytes, "checkpoint-bytes", 0, "also checkpoint once a graph's WAL exceeds this many bytes (0 = default 4 MiB)")
	flag.IntVar(&cfg.writeQueue, "write-queue", 0, "per-graph write admission-queue capacity; a full queue answers 429 (0 = default 128)")
	flag.DurationVar(&cfg.flushEvery, "flush-interval", 0, "group-commit coalescing window: how long the writer waits for more batches after the first arrives (0 = commit whatever is queued immediately)")
	flag.IntVar(&cfg.compactDepth, "compact-depth", 0, "compact a graph's overlay chain into a fresh base CSR once it is this many layers deep (0 = default 8; 1 compacts after every drain)")
	flag.Float64Var(&cfg.compactDirty, "compact-dirty", 0, "also compact once the chain's dirty vertices reach this fraction of n (0 = default 0.25)")
	flag.DurationVar(&cfg.window, "window", 0, "default sliding window for created graphs (e.g. 6h): edges older than the window are expired through WAL-recorded delete batches; 0 = unwindowed. Per-graph \"window\" on create overrides")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read-only follower of the leader at this base URL (e.g. http://leader:8080): graphs ship over from its checkpoints and WAL stream; local writes are rejected")
	flag.DurationVar(&cfg.followEvery, "follow-interval", 200*time.Millisecond, "how often a follower polls the leader's WAL stream (bounds read staleness)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "egobwd:", err)
		os.Exit(1)
	}
}

// setup builds the server from cfg: registry options, crash recovery from
// the data directory, dataset preloads. Split from run so tests can exercise
// the boot path without serving.
func setup(cfg config) (*server.Server, error) {
	if cfg.follow != "" && cfg.preload != "" {
		return nil, fmt.Errorf("-preload is a write and a follower is read-only: drop -preload or preload on the leader at %s", cfg.follow)
	}
	if cfg.window < 0 {
		return nil, fmt.Errorf("-window must be non-negative, got %v", cfg.window)
	}
	if cfg.window > 0 && cfg.window < cfg.flushEvery {
		return nil, fmt.Errorf("-window %v is shorter than -flush-interval %v: edges would expire before the drain that admitted them", cfg.window, cfg.flushEvery)
	}
	regOpts := []server.RegistryOption{
		server.WithBuildWorkers(cfg.buildWorkers),
		server.WithWriteQueue(cfg.writeQueue),
		server.WithFlushInterval(cfg.flushEvery),
		server.WithCompactPolicy(cfg.compactDepth, cfg.compactDirty),
		server.WithWindow(cfg.window),
	}
	if cfg.dataDir != "" {
		regOpts = append(regOpts,
			server.WithDataDir(cfg.dataDir),
			server.WithCheckpointPolicy(cfg.ckptEvery, cfg.ckptBytes))
	}
	if cfg.follow != "" {
		regOpts = append(regOpts, server.WithLeader(cfg.follow))
	}
	srv := server.New(server.WithRegistryOptions(regOpts...))

	if cfg.dataDir != "" {
		infos, err := srv.Registry().Recover()
		if err != nil {
			// A per-graph failure poisons only that graph: log it, serve the
			// rest. Anything else (unreadable directory, foreign files) is
			// still fatal — the data dir itself is suspect.
			var recErr *server.RecoverError
			if !errors.As(err, &recErr) {
				return nil, fmt.Errorf("recover %s: %w", cfg.dataDir, err)
			}
			for _, f := range recErr.Failures {
				log.Printf("egobwd: recover %q failed, skipping: %v", f.Graph, f.Err)
			}
		}
		for _, info := range infos {
			line := fmt.Sprintf("egobwd: recovered %q mode=%s n=%d m=%d wal_seq=%d snapshot_seq=%d recover_path=%s",
				info.Name, info.Mode, info.N, info.M, info.WALSeq, info.SnapshotSeq, info.RecoverPath)
			if info.RecoverReason != "" {
				line += " reason=" + strconv.Quote(info.RecoverReason)
			}
			log.Print(line)
		}
	}

	for _, name := range strings.Split(cfg.preload, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		g, err := dataset.Load(name)
		if err != nil {
			return nil, fmt.Errorf("preload %q: %w", name, err)
		}
		info, err := srv.Registry().Add(name, g, cfg.mode, cfg.k)
		if errors.Is(err, server.ErrDuplicate) {
			// Already recovered from the data dir — the durable copy (with
			// its applied updates) wins over a fresh preload.
			log.Printf("egobwd: preload %q skipped: recovered from %s", name, cfg.dataDir)
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("preload %q: %w", name, err)
		}
		log.Printf("egobwd: preloaded %q mode=%s n=%d m=%d", info.Name, info.Mode, info.N, info.M)
	}
	return srv, nil
}

func run(cfg config) error {
	srv, err := setup(cfg)
	if err != nil {
		return err
	}
	// Release WAL handles and store locks on the way out; a crash skips
	// this, which is fine — recovery repairs the WAL tail and the kernel
	// drops the locks with the process.
	defer srv.Registry().Close()

	handler := srv.Handler()
	if cfg.dataDir != "" {
		// Durable nodes ship: expose checkpoints and the WAL stream so
		// followers (of this node, or of a follower of it) can sync.
		mux := http.NewServeMux()
		mux.Handle("/ship/", ship.NewHandler(srv.Registry()))
		mux.Handle("/", srv.Handler())
		handler = mux
	}
	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.follow != "" {
		fol := ship.NewFollower(ship.NewClient(cfg.follow, nil), srv.Registry(),
			ship.WithInterval(cfg.followEvery), ship.WithLogf(log.Printf))
		go fol.Run(ctx)
		log.Printf("egobwd: following %s every %s", cfg.follow, cfg.followEvery)
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("egobwd: serving on %s", cfg.addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		log.Printf("egobwd: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
