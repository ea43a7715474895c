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
//	egobwd -preload dblp -mode lazy
//	GOMAXPROCS=8 egobwd               # snapshot-build worker budget
//	egobwd -data-dir /var/lib/egobwd  # durable graphs: WAL + snapshots,
//	                                  # recovered on restart
//	egobwd -data-dir d -checkpoint-every 64 -checkpoint-bytes 16777216
//	egobwd -window 6h                 # temporal serving: graphs default to a
//	                                  # 6-hour sliding window; edges older
//	                                  # than that are expired through WAL-
//	                                  # recorded delete batches
//	egobwd -follow http://leader:8080 # read-only follower: bootstrap every
//	                                  # graph from the leader's checkpoints,
//	                                  # tail its WAL stream, serve reads at
//	                                  # bounded staleness; writes answer 403
//	                                  # with the leader's address
//	egobwd -pprof 127.0.0.1:6060      # net/http/pprof on a listener of its
//	                                  # own, never on the API's
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
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/ship"
)

// config collects the daemon's flags.
type config struct {
	addr        string
	preload     string
	mode        string
	dataDir     string
	ckptEvery   int
	ckptBytes   int64
	window      time.Duration
	follow      string
	followEvery time.Duration
	pprof       string
	deadline    time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.preload, "preload", "", "comma-separated dataset names to register at startup (see egobw -dataset)")
	flag.StringVar(&cfg.mode, "mode", server.ModeLocal, "maintenance mode for preloaded graphs: local or lazy")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "directory for durable graphs (per-graph WAL + binary CSR snapshots); graphs recover on restart. Empty = in-memory only")
	flag.IntVar(&cfg.ckptEvery, "checkpoint-every", 0, "fold the WAL into a fresh snapshot after this many update batches (0 = default 16)")
	flag.Int64Var(&cfg.ckptBytes, "checkpoint-bytes", 0, "also checkpoint once a graph's WAL exceeds this many bytes (0 = default 4 MiB)")
	flag.DurationVar(&cfg.window, "window", 0, "default sliding window for created graphs (e.g. 6h): edges older than the window are expired through WAL-recorded delete batches; 0 = unwindowed. Per-graph \"window\" on create overrides")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read-only follower of the leader at this base URL (e.g. http://leader:8080): graphs ship over from its checkpoints and WAL stream; local writes are rejected")
	flag.DurationVar(&cfg.followEvery, "follow-interval", 200*time.Millisecond, "how often a follower polls the leader's WAL stream (bounds read staleness)")
	flag.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof under /debug/pprof/ on this address (e.g. 127.0.0.1:6060), a listener of its own that shuts down with the API's; empty = off")
	flag.DurationVar(&cfg.deadline, "search-deadline", 0, "bound each top-k cache miss's search (e.g. 50ms) unless the query sets ?deadline_ms=: a lazy graph's scores read answers the prefix certified by then with \"complete\": false, an approx read 503; 0 = none")
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
	if cfg.deadline < 0 {
		return nil, fmt.Errorf("-search-deadline must be non-negative, got %v", cfg.deadline)
	}
	regOpts := []server.RegistryOption{server.WithWindow(cfg.window), server.WithSearchDeadline(cfg.deadline)}
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
		// Recover logs each graph's outcome. A per-graph failure poisons
		// only that graph: serve the rest. Anything else (unreadable
		// directory, foreign files) is still fatal — the data dir itself is
		// suspect.
		if _, err := srv.Registry().Recover(); err != nil {
			var recErr *server.RecoverError
			if !errors.As(err, &recErr) {
				return nil, fmt.Errorf("recover %s: %w", cfg.dataDir, err)
			}
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
		info, err := srv.Registry().Add(name, g, cfg.mode, 0)
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
			ship.WithInterval(cfg.followEvery))
		go fol.Run(ctx)
		log.Printf("egobwd: following %s every %s", cfg.follow, cfg.followEvery)
	}

	servers := []*http.Server{httpSrv}
	if cfg.pprof != "" {
		servers = append(servers, pprofServer(cfg.pprof))
	}
	return serve(ctx, servers...)
}

// pprofServer serves net/http/pprof on a mux of its own: the profiles are
// reachable only on addr, never through the API handler.
func pprofServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
}

// serve runs every server until ctx is done or one of them fails, then
// shuts them all down and returns once every one has stopped.
func serve(ctx context.Context, servers ...*http.Server) error {
	errc := make(chan error, len(servers))
	for _, s := range servers {
		go func() {
			log.Printf("egobwd: serving on %s", s.Addr)
			errc <- s.ListenAndServe()
		}()
	}
	running := len(servers)
	var failed error
	select {
	case failed = <-errc:
		running--
	case <-ctx.Done():
		log.Printf("egobwd: shutting down")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := []error{failed}
	for _, s := range servers {
		errs = append(errs, s.Shutdown(shutdownCtx))
	}
	for range running {
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
