// Package server implements the query-serving subsystem behind the egobwd
// daemon: a registry of named graphs, each pairing an immutable CSR snapshot
// with one of the paper's dynamic maintainers, exposed over an HTTP/JSON API.
//
// Concurrency model (DESIGN.md §6):
//
//   - Readers (top-k, per-vertex, stats) load the current snapshot with one
//     atomic pointer read and never block or be blocked by writers. A
//     snapshot is immutable: CSR graph, frozen exact-score vector (ModeLocal)
//     and a monotonically growing result cache keyed by (k, algo, θ).
//   - Writers (edge batches) enter a per-graph bounded admission queue
//     drained by a dedicated writer goroutine (DESIGN.md §9): each drain
//     group-commits everything waiting — one WAL fsync, the per-batch
//     applies through the maintainer (LocalInsert/LocalDelete or
//     LazyInsert/LazyDelete), then one exported and atomically published
//     snapshot with a bumped epoch. Swapping the pointer is also the cache
//     invalidation: the old snapshot's cache becomes unreachable with it.
//     A full queue rejects with 429 (backpressure); ack=async callers get
//     their response at admission instead of after the group commit.
//   - The one read shape that touches maintainer state, algo=lazy (LazyTopK
//     refreshes stale members on read), takes the same write lock.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Server wires the Registry to an http.Handler.
type Server struct {
	reg     *Registry
	regOpts []RegistryOption
	started time.Time
	logf    func(format string, args ...any)
}

// Option configures a Server.
type Option func(*Server)

// WithLogger routes request-path log lines (graph loads, update batches)
// through logf; the default is log.Printf. Pass a no-op to silence.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithRegistryOptions forwards options to the Server's Registry (for
// example WithBuildWorkers).
func WithRegistryOptions(opts ...RegistryOption) Option {
	return func(s *Server) { s.regOpts = append(s.regOpts, opts...) }
}

// New returns a Server with an empty registry.
func New(opts ...Option) *Server {
	s := &Server{started: time.Now(), logf: log.Printf}
	for _, o := range opts {
		o(s)
	}
	s.reg = NewRegistry(s.regOpts...)
	return s
}

// Registry exposes the underlying registry (for preloading graphs in main).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the HTTP API:
//
//	GET    /healthz                                   liveness + uptime
//	GET    /graphs                                    list served graphs
//	POST   /graphs                                    load/generate a graph
//	GET    /graphs/{name}                             one graph's summary
//	DELETE /graphs/{name}                             drop a graph
//	GET    /graphs/{name}/topk?k=&algo=&theta=        top-k query
//	GET    /graphs/{name}/vertices/{v}/ego-betweenness
//	GET    /graphs/{name}/stats                       stats + serving counters
//	POST   /graphs/{name}/edges?ack=durable|async     insert edge batch
//	DELETE /graphs/{name}/edges?ack=durable|async     delete edge batch
//
// Edge batches answer 200 after their group commit (ack=durable, the
// default), 202 at admission (ack=async), or 429 with Retry-After when the
// graph's write queue is full.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /graphs", s.handleList)
	mux.HandleFunc("POST /graphs", s.handleLoad)
	mux.HandleFunc("GET /graphs/{name}", s.handleInfo)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleRemove)
	mux.HandleFunc("GET /graphs/{name}/topk", s.handleTopK)
	mux.HandleFunc("GET /graphs/{name}/vertices/{v}/ego-betweenness", s.handleVertex)
	mux.HandleFunc("GET /graphs/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /graphs/{name}/edges", s.handleEdges(true))
	mux.HandleFunc("DELETE /graphs/{name}/edges", s.handleEdges(false))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, encodeJSON(v))
}

// encodeJSON is the one body format of the API: indented, newline-terminated.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the payload types hold nothing json cannot encode
	return buf.Bytes()
}

// writeBody sends an encoded body in one write with its length, so a large
// answer is not cut into chunks at the response buffer's size.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a client that went away is not the handler's error
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeRegistryError answers a failed registry call. The sentinel the error
// wraps decides the status — the failure itself, never a second lookup that
// could race a concurrent load or removal; an error wrapping none is the
// request's own fault (validation). A read-only rejection carries the
// leader's address, so a client holding only the follower's URL learns where
// writes go; a full admission queue is backpressure, not failure: 429 with a
// Retry-After derived from the actual backlog (see retryAfter). A storage
// failure is the server's fault, not the request's. (For a failed checkpoint
// the batch itself is already durable and applied — ApplyEdgesStamped
// documents this — but the operator needs the 500 more than the client
// needs the partial result.)
func (s *Server) writeRegistryError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var be *BacklogError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicate):
		status = http.StatusConflict
	case errors.Is(err, ErrReadOnly):
		status = http.StatusForbidden
		w.Header().Set("X-Leader", s.reg.Leader())
	case errors.As(err, &be):
		status = http.StatusTooManyRequests
		secs := int64((be.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	case errors.Is(err, ErrStorage):
		status = http.StatusInternalServerError
	}
	writeError(w, status, err)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"graphs": s.reg.Len(),
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.Infos()})
}

// GeneratorSpec selects one of the seeded synthetic models.
type GeneratorSpec struct {
	Model       string  `json:"model"` // er | ba | chunglu | ws | affiliation
	N           int32   `json:"n"`
	M           int64   `json:"m,omitempty"`           // er
	MPer        int     `json:"mper,omitempty"`        // ba
	Gamma       float64 `json:"gamma,omitempty"`       // chunglu
	AvgDeg      float64 `json:"avgdeg,omitempty"`      // chunglu
	MaxDeg      int32   `json:"maxdeg,omitempty"`      // chunglu (0 = uncapped)
	K           int     `json:"k,omitempty"`           // ws ring degree
	Beta        float64 `json:"beta,omitempty"`        // ws rewiring probability
	Communities int     `json:"communities,omitempty"` // affiliation
	MeanSize    float64 `json:"mean_size,omitempty"`   // affiliation
	P           float64 `json:"p,omitempty"`           // affiliation
	Seed        uint64  `json:"seed"`
}

// LoadRequest is the POST /graphs body. Exactly one source — Edges,
// Generator, or Dataset — must be set.
type LoadRequest struct {
	Name      string         `json:"name"`
	Edges     [][2]int32     `json:"edges,omitempty"`
	N         int32          `json:"n,omitempty"` // with Edges; 0 infers from endpoints
	Generator *GeneratorSpec `json:"generator,omitempty"`
	Dataset   string         `json:"dataset,omitempty"`
	Mode      string         `json:"mode,omitempty"` // local (default) | lazy
	K         int            `json:"k,omitempty"`    // lazy mode's maintained k

	// Window makes the graph temporal: a Go duration string ("6h", "90s")
	// sets the sliding window edges live in before the writer expires them
	// (DESIGN.md §14); "none" (or "0") forces unwindowed serving even when
	// the daemon runs with a default -window; absent inherits the default.
	Window string `json:"window,omitempty"`
}

// maxLoadVertices bounds the vertex count a single load request may name,
// whether via an explicit n, an edge endpoint (FromEdges infers n from the
// largest id, so one edge [0, 2e9] would otherwise allocate gigabytes of
// CSR offsets), or a generator parameter.
const maxLoadVertices = 1 << 24

// maxLoadEdges bounds the edge count a generator request may ask for — the
// generators preallocate proportionally to it (BarabasiAlbert sizes a
// buffer by n·mPer, ErdosRenyi by m), so it needs the same treatment as
// the vertex count.
const maxLoadEdges = 1 << 26

// maxRequestBody caps request body reads. The largest legitimate bodies
// are explicit edge lists; 64 MiB fits ~4M edges, well past what the
// vertex limits admit, while an attacker-streamed multi-gigabyte JSON
// array dies at the transport instead of materializing in memory.
const maxRequestBody = 64 << 20

// buildGraph materializes the requested graph source.
func buildGraph(req *LoadRequest) (*graph.Graph, error) {
	sources := 0
	if len(req.Edges) > 0 {
		sources++
	}
	if req.Generator != nil {
		sources++
	}
	if req.Dataset != "" {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of edges, generator, dataset must be given")
	}
	switch {
	case len(req.Edges) > 0:
		n := req.N
		if n == 0 {
			n = -1
		}
		if n > maxLoadVertices {
			return nil, fmt.Errorf("n %d exceeds the limit of %d vertices", n, maxLoadVertices)
		}
		for _, e := range req.Edges {
			if e[0] >= maxLoadVertices || e[1] >= maxLoadVertices {
				return nil, fmt.Errorf("edge (%d,%d) exceeds the limit of %d vertices", e[0], e[1], maxLoadVertices)
			}
		}
		return graph.FromEdges(n, req.Edges)
	case req.Dataset != "":
		return dataset.Load(req.Dataset)
	}
	gs := req.Generator
	if gs.N < 1 || gs.N > maxLoadVertices {
		return nil, fmt.Errorf("generator n must be in [1, %d], got %d", maxLoadVertices, gs.N)
	}
	if gs.M < 0 || gs.MPer < 0 || gs.MaxDeg < 0 || gs.K < 0 || gs.Communities < 0 {
		return nil, fmt.Errorf("generator size parameters must be non-negative")
	}
	// The generators preallocate proportionally to their edge budget, so
	// every per-model size knob must respect maxLoadEdges.
	switch {
	case gs.M > maxLoadEdges,
		int64(gs.N)*int64(gs.MPer) > maxLoadEdges,
		int64(gs.N)*int64(gs.K) > maxLoadEdges,
		gs.AvgDeg > float64(maxLoadEdges)/float64(gs.N),
		float64(gs.Communities)*gs.MeanSize*gs.MeanSize > float64(maxLoadEdges):
		return nil, fmt.Errorf("generator parameters imply more than the limit of %d edges", int64(maxLoadEdges))
	}
	switch gs.Model {
	case "er":
		return gen.ErdosRenyi(gs.N, gs.M, gs.Seed), nil
	case "ba":
		return gen.BarabasiAlbert(gs.N, gs.MPer, gs.Seed), nil
	case "chunglu":
		return gen.ChungLu(gs.N, gs.Gamma, gs.AvgDeg, gs.MaxDeg, gs.Seed), nil
	case "ws":
		return gen.WattsStrogatz(gs.N, gs.K, gs.Beta, gs.Seed), nil
	case "affiliation":
		return gen.Affiliation(gs.N, gs.Communities, gs.MeanSize, gs.P, gs.Seed), nil
	default:
		return nil, fmt.Errorf("unknown generator model %q", gs.Model)
	}
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	g, err := buildGraph(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var info GraphInfo
	switch req.Window {
	case "":
		info, err = s.reg.Add(req.Name, g, req.Mode, req.K)
	case "none", "0":
		info, err = s.reg.AddWindowed(req.Name, g, req.Mode, req.K, 0)
	default:
		window, perr := time.ParseDuration(req.Window)
		if perr != nil || window <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad window %q (want a positive duration like \"6h\", or \"none\")", req.Window))
			return
		}
		info, err = s.reg.AddWindowed(req.Name, g, req.Mode, req.K, window)
	}
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	s.logf("server: loaded graph %q mode=%s n=%d m=%d", info.Name, info.Mode, info.N, info.M)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Info(r.PathValue("name"))
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.Remove(name); err != nil {
		s.writeRegistryError(w, err)
		return
	}
	s.logf("server: removed graph %q", name)
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	k := 10
	if qs := q.Get("k"); qs != "" {
		v, err := strconv.Atoi(qs)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad k %q: %w", qs, err))
			return
		}
		k = v
	}
	tq := TopKQuery{K: k, Algo: q.Get("algo")}
	if qs := q.Get("theta"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad theta %q (want float ≥ 1)", qs))
			return
		}
		// Range validation lives in Registry.TopKQ, so the HTTP and the
		// library surface reject exactly the same values — same for the
		// approx knobs below.
		tq.Theta = v
	}
	if qs := q.Get("eps"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad eps %q (want float in (0, 1))", qs))
			return
		}
		tq.Eps = v
	}
	if qs := q.Get("conf"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad conf %q (want float in (0, 1))", qs))
			return
		}
		tq.Conf = v
	}
	if qs := q.Get("seed"); qs != "" {
		v, err := strconv.ParseUint(qs, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad seed %q (want uint64)", qs))
			return
		}
		tq.Seed = v
	}
	res, err := s.reg.TopKQ(r.PathValue("name"), tq)
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	if res.hitBody != nil {
		writeBody(w, http.StatusOK, res.hitBody)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	v64, err := strconv.ParseInt(r.PathValue("v"), 10, 32)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad vertex id %q: %w", r.PathValue("v"), err))
		return
	}
	res, err := s.reg.EgoBetweenness(r.PathValue("name"), int32(v64))
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.reg.Stats(r.PathValue("name"))
	if err != nil {
		s.writeRegistryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// EdgeBatch is the body of POST/DELETE /graphs/{name}/edges. On a windowed
// graph an insert batch may carry timestamps (unix milliseconds): Stamps
// gives one per edge, Ts stamps the whole batch, and neither defaults to
// the leader's receive time. Unwindowed graphs and delete batches reject
// timestamps.
type EdgeBatch struct {
	Edges  [][2]int32 `json:"edges"`
	Ts     int64      `json:"ts,omitempty"`
	Stamps []int64    `json:"stamps,omitempty"`
}

func (s *Server) handleEdges(insert bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		var batch EdgeBatch
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&batch); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		if batch.Ts != 0 && batch.Stamps != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("ts and stamps are mutually exclusive"))
			return
		}
		stamps := batch.Stamps
		if stamps == nil && batch.Ts != 0 {
			stamps = make([]int64, len(batch.Edges))
			for i := range stamps {
				stamps[i] = batch.Ts
			}
		}
		res, err := s.reg.ApplyEdgesStamped(name, batch.Edges, stamps, insert, r.URL.Query().Get("ack"))
		if err != nil {
			s.writeRegistryError(w, err)
			return
		}
		op := "insert"
		if !insert {
			op = "delete"
		}
		if res.Pending {
			s.logf("server: graph %q %s batch admitted async (%d edges)", name, op, len(batch.Edges))
			writeJSON(w, http.StatusAccepted, res)
			return
		}
		s.logf("server: graph %q %s batch: %d applied, %d failed, epoch %d",
			name, op, res.Applied, len(res.Errors), res.Epoch)
		writeJSON(w, http.StatusOK, res)
	}
}
