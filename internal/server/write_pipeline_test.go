package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
)

// waitFor polls cond (every millisecond, up to ~5 s) and fails the test if
// it never becomes true. The write pipeline is asynchronous, so tests that
// observe its side effects need a fence.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGroupCommitCoalesces: async batches admitted while the writer holds a
// coalescing window end up in one group commit — one snapshot epoch, one
// WAL append covering per-batch records — and a durable batch admitted
// behind them is acknowledged only after everything before it committed.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(WithDataDir(dir), WithBuildWorkers(1),
		WithFlushInterval(300*time.Millisecond), WithCheckpointPolicy(1000, 1<<30))
	defer reg.Close()
	base := gen.BarabasiAlbert(200, 3, 42)
	if _, err := reg.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	m0 := base.NumEdges()

	// Six async single-edge inserts of new edges; they land in the writer's
	// open window. Then one durable insert: its ack fences the whole queue.
	async := [][2]int32{{0, 190}, {1, 191}, {2, 192}, {3, 193}, {4, 194}, {5, 195}}
	for _, e := range async {
		res, err := reg.applyEdgesAck("g", [][2]int32{e}, true, AckAsync)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pending || res.Ack != AckAsync {
			t.Fatalf("async response %+v, want pending", res)
		}
	}
	res, err := reg.applyEdges("g", [][2]int32{{6, 196}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pending || res.Ack != AckDurable || res.Applied != 1 {
		t.Fatalf("durable response %+v", res)
	}

	info, err := reg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.M != m0+7 {
		t.Fatalf("m = %d, want %d", info.M, m0+7)
	}
	if info.CoalescedBatches != 7 {
		t.Fatalf("coalesced_batches = %d, want 7", info.CoalescedBatches)
	}
	if info.GroupCommits >= 7 {
		t.Fatalf("group_commits = %d, want < 7 (no coalescing happened)", info.GroupCommits)
	}
	if info.WALSeq != 7 {
		t.Fatalf("wal_seq = %d, want 7 (one WAL record per batch)", info.WALSeq)
	}
	// One published epoch per group commit, on top of the initial epoch 1.
	if info.Epoch != 1+uint64(info.GroupCommits) {
		t.Fatalf("epoch = %d, want %d (1 + %d group commits)", info.Epoch, 1+info.GroupCommits, info.GroupCommits)
	}
}

// TestConcurrentDurableWritersCoalesce: many goroutines issuing durable
// batches against one graph all succeed, see monotone epochs, and the WAL
// carries every batch exactly once.
func TestConcurrentDurableWritersCoalesce(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(WithDataDir(dir), WithBuildWorkers(1), WithCheckpointPolicy(1000, 1<<30))
	defer reg.Close()
	base := gen.BarabasiAlbert(300, 3, 7)
	if _, err := reg.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	m0 := base.NumEdges()

	const writers = 8
	const perWriter = 5
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := uint64(0)
			for i := 0; i < perWriter; i++ {
				// Distinct new edge per (writer, i): the second endpoint
				// is past the base vertex set, so the insert grows the
				// graph and can never collide with an existing edge.
				e := [2]int32{int32(w), int32(300 + w*perWriter + i)}
				res, err := reg.applyEdges("g", [][2]int32{e}, true)
				if err != nil {
					errs <- err
					return
				}
				if res.Applied != 1 || len(res.Errors) != 0 {
					errs <- fmt.Errorf("writer %d batch %d: %+v", w, i, res)
					return
				}
				if res.Epoch < last {
					errs <- fmt.Errorf("writer %d: epoch regressed %d -> %d", w, last, res.Epoch)
					return
				}
				last = res.Epoch
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	info, err := reg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.M != m0+writers*perWriter {
		t.Fatalf("m = %d, want %d", info.M, m0+int64(writers*perWriter))
	}
	if info.WALSeq != writers*perWriter {
		t.Fatalf("wal_seq = %d, want %d", info.WALSeq, writers*perWriter)
	}
	if info.CoalescedBatches != writers*perWriter {
		t.Fatalf("coalesced_batches = %d, want %d", info.CoalescedBatches, writers*perWriter)
	}
}

// TestBackpressure fills the admission queue behind a deliberately blocked
// writer goroutine and requires the overflow admission to fail fast with
// ErrBacklog (not block, not get lost) and the accounting to record it.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	reg := NewRegistry(WithBuildWorkers(1), WithWriteQueue(2),
		WithCrashHook(func(g, p string) error {
			if p == crashBeforeApply {
				<-block // closed channel reads return immediately after release
			}
			return nil
		}))
	defer reg.Close()
	defer close(block)
	if _, err := reg.Add("g", gen.BarabasiAlbert(100, 3, 1), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}

	// First batch: the writer takes it and parks inside the commit.
	if _, err := reg.applyEdgesAck("g", [][2]int32{{0, 90}}, true, AckAsync); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "writer to take the first batch", func() bool {
		info, err := reg.Info("g")
		return err == nil && info.WriteQueueDepth == 0
	})
	// Two more fill the queue; the fourth must bounce.
	for i := 0; i < 2; i++ {
		if _, err := reg.applyEdgesAck("g", [][2]int32{{1, int32(91 + i)}}, true, AckAsync); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.applyEdgesAck("g", [][2]int32{{2, 93}}, true, AckAsync); !errors.Is(err, ErrBacklog) {
		t.Fatalf("overflow admission: err = %v, want ErrBacklog", err)
	}
	info, err := reg.Info("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.WriteQueueCap != 2 || info.WriteQueueDepth != 2 || info.WriteRejects != 1 {
		t.Fatalf("info = cap %d depth %d rejects %d, want 2/2/1",
			info.WriteQueueCap, info.WriteQueueDepth, info.WriteRejects)
	}
}

// TestBackpressureHTTP: the same overflow over HTTP answers 429 with a
// Retry-After header, and an async admission answers 202.
func TestBackpressureHTTP(t *testing.T) {
	block := make(chan struct{})
	s := New(WithLogger(func(string, ...any) {}), WithRegistryOptions(
		WithBuildWorkers(1), WithWriteQueue(1),
		WithCrashHook(func(g, p string) error {
			if p == crashBeforeApply {
				<-block
			}
			return nil
		})))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	defer close(block)
	if _, err := s.Registry().Add("g", gen.BarabasiAlbert(100, 3, 1), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}

	post := func(edge [2]int32) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"edges":[[%d,%d]]}`, edge[0], edge[1])
		resp, err := http.Post(ts.URL+"/graphs/g/edges?ack=async", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post([2]int32{0, 90}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async admission: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, "writer to take the first batch", func() bool {
		info, err := s.Registry().Info("g")
		return err == nil && info.WriteQueueDepth == 0
	})
	if resp := post([2]int32{1, 91}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill: status %d, want 202", resp.StatusCode)
	}
	resp := post([2]int32{2, 92})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestAckModeValidation: an unknown ack mode is a request error on both
// surfaces.
func TestAckModeValidation(t *testing.T) {
	ts := newTestServer(t)
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "g", Edges: karateEdges()}, &info); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs/g/edges?ack=eventually", EdgeBatch{Edges: [][2]int32{{0, 20}}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad ack mode: status %d, want 400", code)
	}
}

// TestAsyncAdmissionAfterPoisonRejected: once a durability failure poisons
// the pipeline, ack=async admissions must fail with ErrStorage up front —
// the old behavior answered 202 at admission and then silently dropped
// every batch in the dead writer, unbounded data loss with no signal.
func TestAsyncAdmissionAfterPoisonRejected(t *testing.T) {
	errBoom := errors.New("disk on fire")
	armed := false
	reg := NewRegistry(WithDataDir(t.TempDir()), WithBuildWorkers(1),
		WithCrashHook(func(g, p string) error {
			if armed && p == store.CrashBeforeWALAppend {
				return errBoom
			}
			return nil
		}))
	defer reg.Close()
	if _, err := reg.Add("g", gen.BarabasiAlbert(60, 3, 1), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.applyEdges("g", [][2]int32{{0, 55}}, true); err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, err := reg.applyEdges("g", [][2]int32{{1, 56}}, true); !errors.Is(err, ErrStorage) || !errors.Is(err, errBoom) {
		t.Fatalf("poisoning write: err = %v, want ErrStorage wrapping the cause", err)
	}
	res, err := reg.applyEdgesAck("g", [][2]int32{{2, 57}}, true, AckAsync)
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("async admission after poison: res = %+v err = %v, want ErrStorage", res, err)
	}
	if res.Pending {
		t.Fatal("async admission after poison reported pending")
	}
}

// TestRemoveConcurrentWithWrites is the use-after-Remove regression test:
// writers and lazy readers racing a Remove must fail cleanly (not found /
// backlog), and the durable directory must stay deleted — the old code let
// a straggler holding the entry append to the removed store, resurrecting
// the on-disk directory.
func TestRemoveConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 4; round++ {
		reg := NewRegistry(WithDataDir(dir), WithBuildWorkers(1), WithCheckpointPolicy(2, 1<<30))
		base := gen.BarabasiAlbert(80, 3, uint64(round))
		if _, err := reg.Add("g", base, ModeLazy, 5); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Writers: hammer updates with both ack modes until the graph goes
		// away under them.
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ack := AckDurable
				if w%2 == 1 {
					ack = AckAsync
				}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					_, err := reg.applyEdgesAck("g", [][2]int32{{int32(w), int32(40 + i%39)}}, i%2 == 0, ack)
					if err != nil && !errors.Is(err, ErrBacklog) {
						if !strings.Contains(err.Error(), "no graph named") {
							t.Errorf("writer %d: unexpected error %v", w, err)
						}
						return
					}
				}
			}(w)
		}
		// Lazy reader: algo=lazy touches maintainer state under the write
		// lock — exactly the straggler the removed flag must turn away.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := reg.topK("g", 3, AlgoLazy, 0); err != nil {
					if !strings.Contains(err.Error(), "no graph named") {
						t.Errorf("lazy reader: unexpected error %v", err)
					}
					return
				}
			}
		}()

		time.Sleep(5 * time.Millisecond) // let the race build up
		if err := reg.Remove("g"); err != nil {
			t.Fatal(err)
		}
		gdir := store.GraphDir(dir, "g")
		if _, err := os.Stat(gdir); !os.IsNotExist(err) {
			t.Fatalf("round %d: store dir survives Remove: %v", round, err)
		}
		close(stop)
		wg.Wait()
		// The heart of the regression: after every straggler has run its
		// course, the deleted directory must not have been resurrected.
		if _, err := os.Stat(gdir); !os.IsNotExist(err) {
			t.Fatalf("round %d: store dir resurrected after Remove: %v", round, err)
		}
		reg.Close()
	}
}

// TestCacheCapConcurrent is the cacheStore regression test: concurrent
// misses on distinct keys from many goroutines must never push the
// per-snapshot result cache past maxCacheEntries, and the counter must
// match the entries actually stored.
func TestCacheCapConcurrent(t *testing.T) {
	s := &snapshot{}
	const workers = 16
	const perWorker = 64 // workers*perWorker = 1024 distinct keys >> cap 256
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s.cacheStore(cacheKey{k: w*perWorker + i}, cachedResult{})
			}
		}(w)
	}
	wg.Wait()
	stored := 0
	s.cache.Range(func(any, any) bool { stored++; return true })
	if stored > maxCacheEntries {
		t.Fatalf("cache holds %d entries, cap is %d", stored, maxCacheEntries)
	}
	if got := s.cacheCount.Load(); got != int64(stored) {
		t.Fatalf("cacheCount = %d, stored = %d", got, stored)
	}

	// Same-key stampede: N goroutines racing one key must store it once and
	// account for it once.
	s2 := &snapshot{}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s2.cacheStore(cacheKey{k: 1}, cachedResult{})
		}()
	}
	wg.Wait()
	if got := s2.cacheCount.Load(); got != 1 {
		t.Fatalf("same-key stampede: cacheCount = %d, want 1", got)
	}
}

// TestThetaValidation pins the unified θ contract on both surfaces: 0 (or
// unset) selects the documented default 1.05, anything else below 1 is an
// explicit error — no more silent rewriting on the Go API.
func TestThetaValidation(t *testing.T) {
	s := New(WithLogger(func(string, ...any) {}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	reg := s.Registry()
	var info GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/graphs", LoadRequest{Name: "g", Edges: karateEdges()}, &info); code != http.StatusCreated {
		t.Fatalf("load: status %d", code)
	}

	cases := []struct {
		theta   float64
		algo    string
		wantErr bool
		served  float64 // θ the opt search must report back
	}{
		{theta: 0, algo: AlgoOpt, served: defaultTheta},
		{theta: 1, algo: AlgoOpt, served: 1},
		{theta: 1.5, algo: AlgoOpt, served: 1.5},
		{theta: 0.5, algo: AlgoOpt, wantErr: true},
		{theta: -3, algo: AlgoOpt, wantErr: true},
		{theta: math.NaN(), algo: AlgoOpt, wantErr: true},
		{theta: 0.5, algo: AlgoScores, wantErr: true}, // validated even where θ is unused
		{theta: 0, algo: AlgoScores},
	}
	// reg is the httptest server's registry: exercising the same instance
	// on both surfaces keeps the comparison honest.
	for _, tc := range cases {
		name := fmt.Sprintf("go/theta=%v/algo=%s", tc.theta, tc.algo)
		// Go API surface.
		res, err := reg.topK("g", 3, tc.algo, tc.theta)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: no error", name)
			}
		} else if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if tc.algo == AlgoOpt && res.Theta != tc.served {
			t.Errorf("%s: served theta %v, want %v", name, res.Theta, tc.served)
		}

		// HTTP surface (NaN has no query-string spelling; skip it there).
		if math.IsNaN(tc.theta) {
			continue
		}
		url := fmt.Sprintf("%s/graphs/g/topk?k=3&algo=%s", ts.URL, tc.algo)
		if tc.theta != 0 {
			url += fmt.Sprintf("&theta=%g", tc.theta)
		}
		var tk TopKResult
		code := doJSON(t, "GET", url, nil, &tk)
		if tc.wantErr && code != http.StatusBadRequest {
			t.Errorf("http %s: status %d, want 400", name, code)
		}
		if !tc.wantErr && code != http.StatusOK {
			t.Errorf("http %s: status %d, want 200", name, code)
		}
		if !tc.wantErr && tc.algo == AlgoOpt && tk.Theta != tc.served {
			t.Errorf("http %s: served theta %v, want %v", name, tk.Theta, tc.served)
		}
	}
}
