package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/store"
)

// parkAtApply returns a crash hook that parks the writer at
// crashBeforeApply until release is called, and parked, which returns once
// the writer has parked there. By then collectGroup has returned, so the
// group is sealed and every batch admitted after parked stays queued; an
// empty queue alone is no such fence, as the writer may still be yielding
// inside collectGroup and about to drain more.
func parkAtApply(t *testing.T) (hook func(name, point string) error, parked, release func()) {
	reached := make(chan struct{}, 1)
	block := make(chan struct{})
	hook = func(_, p string) error {
		if p == crashBeforeApply {
			select {
			case reached <- struct{}{}:
			default:
			}
			<-block // closed channel reads return immediately after release
		}
		return nil
	}
	parked = func() {
		t.Helper()
		select {
		case <-reached:
		case <-time.After(10 * time.Second):
			t.Fatal("timed out waiting for the writer to park before the apply")
		}
	}
	return hook, parked, func() { close(block) }
}

// TestGroupCommitCoalesces: async batches admitted while the writer is busy
// end up in one group commit — one snapshot epoch, one WAL append covering
// per-batch records — and a durable batch admitted behind them is
// acknowledged only after everything before it committed.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(WithDataDir(dir), WithCheckpointPolicy(1000, 1<<30))
	defer reg.Close()
	base := gen.BarabasiAlbert(200, 3, 42)
	if _, err := reg.Add("g", base, ModeLocal, 0); err != nil {
		t.Fatal(err)
	}
	m0 := base.NumEdges()
	e, err := reg.get("g")
	if err != nil {
		t.Fatal(err)
	}

	// Six async single-edge inserts of new edges, admitted under the entry
	// lock: the writer collects what is queued when it wakes, then blocks on
	// the lock, so the rest wait in the queue and drain as one group once it
	// is released. Then one durable insert: its ack fences the whole queue.
	async := [][2]int32{{0, 190}, {1, 191}, {2, 192}, {3, 193}, {4, 194}, {5, 195}}
	e.mu.Lock()
	for _, ed := range async {
		res, err := reg.applyEdgesAck("g", [][2]int32{ed}, true, AckAsync)
		if err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
		if !res.Pending || res.Ack != AckAsync {
			e.mu.Unlock()
			t.Fatalf("async response %+v, want pending", res)
		}
	}
	e.mu.Unlock()
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
	reg := NewRegistry(WithDataDir(dir), WithCheckpointPolicy(1000, 1<<30))
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
	hook, parked, release := parkAtApply(t)
	reg := NewRegistry(WithCrashHook(hook))
	reg.queueCap = 2
	defer reg.Close()
	defer release()
	if _, err := reg.Add("g", gen.BarabasiAlbert(100, 3, 1), ModeLocal, 0); err != nil {
		t.Fatal(err)
	}

	// First batch: the writer takes it and parks inside the commit.
	if _, err := reg.applyEdgesAck("g", [][2]int32{{0, 90}}, true, AckAsync); err != nil {
		t.Fatal(err)
	}
	parked()
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
	hook, parked, release := parkAtApply(t)
	s := New(WithLogger(func(string, ...any) {}), WithRegistryOptions(WithCrashHook(hook)))
	s.Registry().queueCap = 1
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	defer release()
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
	parked()
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
	reg := NewRegistry(WithDataDir(t.TempDir()), WithCrashHook(func(g, p string) error {
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
	if info, err := reg.Info("g"); err != nil || !strings.Contains(info.Poisoned, errBoom.Error()) {
		t.Fatalf("GraphInfo.Poisoned = %q (err %v), want the cause %q", info.Poisoned, err, errBoom)
	}
}

// TestRemoveConcurrentWithWrites is the use-after-Remove regression test:
// writers and lazy-mode readers racing a Remove must fail cleanly (not
// found / backlog), and the durable directory must stay deleted — the old code let
// a straggler holding the entry append to the removed store, resurrecting
// the on-disk directory.
func TestRemoveConcurrentWithWrites(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 4; round++ {
		reg := NewRegistry(WithDataDir(dir), WithCheckpointPolicy(2, 1<<30))
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
		// Lazy-mode reader: recomputes stale scores on its snapshot while
		// the graph goes away; it must never touch the removed state.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := reg.topK("g", 3, AlgoScores); err != nil {
					if !strings.Contains(err.Error(), "no graph named") {
						t.Errorf("lazy-mode reader: unexpected error %v", err)
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

// TestLazyReadNeverWaitsForTheWriter: a lazy-mode top-k read — a cache
// miss over stale scores, so it recomputes on the snapshot — returns while
// the writer is parked at crashBeforeApply holding e.mu: no read path takes
// the entry's lock.
func TestLazyReadNeverWaitsForTheWriter(t *testing.T) {
	var armed atomic.Bool
	reached, block := make(chan struct{}, 1), make(chan struct{})
	reg := NewRegistry(WithCrashHook(func(_, p string) error {
		if p == crashBeforeApply && armed.Load() {
			reached <- struct{}{}
			<-block
		}
		return nil
	}))
	defer reg.Close()
	base := gen.BarabasiAlbert(200, 3, 42)
	if _, err := reg.Add("g", base, ModeLazy, 10); err != nil {
		t.Fatal(err)
	}
	hub := base.Neighbors(0)
	if _, err := reg.applyEdges("g", [][2]int32{{0, hub[0]}, {0, hub[1]}}, false); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	defer close(block)
	if _, err := reg.applyEdgesAck("g", [][2]int32{{0, hub[0]}}, true, AckAsync); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for the writer to park before the apply")
	}
	done := make(chan error, 1)
	go func() {
		_, err := reg.topK("g", 5, AlgoAuto)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lazy-mode read waited for the writer's lock")
	}
}
