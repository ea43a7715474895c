package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestTemporalIndexBasics(t *testing.T) {
	ti := NewTemporalIndex(1000)
	ti.Stamp(3, 1, 100) // canonicalized to (1,3)
	ti.Stamp(0, 2, 250)
	ti.Stamp(4, 5, 900)
	if len(ti.stamps) != 3 {
		t.Fatalf("live edges = %d, want 3", len(ti.stamps))
	}
	if ts, ok := ti.stamps[canonical(1, 3)]; !ok || ts != 100 {
		t.Fatalf("stamp of (1,3) = %d,%v", ts, ok)
	}
	if oldest, ok := ti.OldestStamp(); !ok || oldest != 100 {
		t.Fatalf("OldestStamp = %d,%v, want 100", oldest, ok)
	}

	// Re-stamping supersedes; the old bucket entry must not resurrect.
	ti.Stamp(1, 3, 950)
	if oldest, ok := ti.OldestStamp(); !ok || oldest != 250 {
		t.Fatalf("after re-stamp OldestStamp = %d,%v, want 250", oldest, ok)
	}

	got := ti.ExpireBefore(901)
	if !reflect.DeepEqual(got, [][2]int32{{0, 2}, {4, 5}}) {
		t.Fatalf("ExpireBefore = %v", got)
	}
	if len(ti.stamps) != 1 {
		t.Fatalf("live edges after expiry = %d, want 1", len(ti.stamps))
	}
	if got := ti.ExpireBefore(901); len(got) != 0 {
		t.Fatalf("second expiry returned %v", got)
	}

	ti.Forget(3, 1)
	if len(ti.stamps) != 0 {
		t.Fatalf("live edges after forget = %d", len(ti.stamps))
	}
	if _, ok := ti.OldestStamp(); ok {
		t.Fatal("OldestStamp on empty index reported a value")
	}
	if got := ti.ExpireBefore(1 << 40); len(got) != 0 {
		t.Fatalf("forgotten edge expired: %v", got)
	}
}

// TestTemporalIndexExpiryMatchesBruteForce cross-checks the heap's expiry
// and its oldest stamp against a map-scan oracle across random stamp
// distributions (including heavy skew and negative stamps) and random
// interleaved deletes, after every operation.
func TestTemporalIndexExpiryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		window := int64(1 + rng.Intn(5000))
		ti := NewTemporalIndex(window)
		oracle := map[[2]int32]int64{}
		for i := 0; i < 300; i++ {
			u, v := int32(rng.Intn(40)), int32(rng.Intn(40))
			if u == v {
				continue
			}
			e := canonical(u, v)
			switch {
			case rng.Intn(4) == 0 && len(oracle) > 0:
				ti.Forget(u, v)
				delete(oracle, e)
			default:
				ts := int64(rng.Intn(10000)) - 2000 // stamps may precede the epoch
				ti.Stamp(u, v, ts)
				oracle[e] = ts
			}
			if rng.Intn(10) == 0 {
				cutoff := int64(rng.Intn(10000)) - 2000
				got := ti.ExpireBefore(cutoff)
				var want [][2]int32
				for e, ts := range oracle {
					if ts < cutoff {
						want = append(want, e)
						delete(oracle, e)
					}
				}
				slices.SortFunc(want, func(a, b [2]int32) int {
					if a[0] != b[0] {
						return int(a[0]) - int(b[0])
					}
					return int(a[1]) - int(b[1])
				})
				if len(got) != 0 || len(want) != 0 {
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d cutoff %d: got %v, want %v", trial, cutoff, got, want)
					}
				}
				if len(ti.stamps) != len(oracle) {
					t.Fatalf("trial %d: live=%d oracle=%d", trial, len(ti.stamps), len(oracle))
				}
			}
			oldest, ok := ti.OldestStamp()
			want, wantOK := int64(0), false
			for _, ts := range oracle {
				if !wantOK || ts < want {
					want, wantOK = ts, true
				}
			}
			if oldest != want || ok != wantOK {
				t.Fatalf("trial %d op %d: OldestStamp = %d,%v, oracle %d,%v", trial, i, oldest, ok, want, wantOK)
			}
		}
	}
}

// TestTemporalIndexChurnBoundsHeap: re-stamping and forgetting a few edges
// 10⁴ times, with stamps far past any cutoff so nothing expires, leaves
// stale entries behind on every operation; the heap still never holds more
// than 2·live + 1 entries, and expiry and the oldest stamp stay exact.
func TestTemporalIndexChurnBoundsHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ti := NewTemporalIndex(1000)
	oracle := map[[2]int32]int64{}
	for i := 0; i < 10_000; i++ {
		u, v := int32(rng.Intn(6)), int32(6+rng.Intn(3))
		if rng.Intn(3) == 0 {
			ti.Forget(u, v)
			delete(oracle, canonical(u, v))
		} else {
			ts := int64(1_000_000 + i)
			ti.Stamp(u, v, ts)
			oracle[canonical(u, v)] = ts
		}
		if got, limit := len(ti.heap), 2*len(ti.stamps)+1; got > limit {
			t.Fatalf("op %d: heap holds %d entries for %d live edges (limit %d)", i, got, len(ti.stamps), limit)
		}
		if got := ti.ExpireBefore(0); len(got) != 0 {
			t.Fatalf("op %d: expired %v below the first stamp", i, got)
		}
	}
	if len(ti.stamps) != len(oracle) {
		t.Fatalf("live = %d, oracle %d", len(ti.stamps), len(oracle))
	}
	want := int64(1 << 40)
	for _, ts := range oracle {
		want = min(want, ts)
	}
	if oldest, ok := ti.OldestStamp(); !ok || oldest != want {
		t.Fatalf("OldestStamp = %d,%v, oracle's minimum %d", oldest, ok, want)
	}
	if got := ti.ExpireBefore(1 << 40); len(got) != len(oracle) || len(ti.stamps) != 0 {
		t.Fatalf("expired %d of %d live edges, %d left", len(got), len(oracle), len(ti.stamps))
	}
}

func TestTemporalIndexExportRoundTrip(t *testing.T) {
	g, err := FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	ti := NewTemporalIndex(60_000)
	stamps := map[[2]int32]int64{{0, 1}: 5, {0, 2}: 9, {1, 2}: 2, {3, 4}: 7}
	for e, ts := range stamps {
		ti.Stamp(e[0], e[1], ts)
	}
	exported, err := ti.ExportStamps(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{5, 9, 2, 7}; !slices.Equal(exported, want) {
		t.Fatalf("exported %v, want %v (canonical edge order)", exported, want)
	}

	ti2, err := NewTemporalIndexFromStamps(60_000, g, exported)
	if err != nil {
		t.Fatal(err)
	}
	if len(ti2.stamps) != len(stamps) {
		t.Fatalf("rebuilt live edges = %d, want %d", len(ti2.stamps), len(stamps))
	}
	for e, want := range stamps {
		if ts, ok := ti2.stamps[canonical(e[0], e[1])]; !ok || ts != want {
			t.Fatalf("rebuilt stamp of %v = %d,%v, want %d", e, ts, ok, want)
		}
	}

	// A graph edge the sidecar missed is a divergence, not a zero stamp.
	ti.Forget(3, 4)
	if _, err := ti.ExportStamps(g); err == nil {
		t.Fatal("export with a missing stamp succeeded")
	}
	if _, err := NewTemporalIndexFromStamps(60_000, g, exported[:3]); err == nil {
		t.Fatal("rebuild with short stamp vector succeeded")
	}
}

// BenchmarkTemporalIndex times the sidecar at 100k and 1M live edges under a
// one-hour window with uniformly drawn stamps:
//   - drain: one writer drain at steady state — advance the cutoff 10 ms,
//     ExpireBefore, OldestStamp (the age gauge), re-stamp the expired
//     edges a window later so the live count holds;
//   - stamp: an index built by Stamp alone, reported per edge;
//   - rebuild: NewTemporalIndexFromStamps, the recovery path.
//
// It uses the exported API only, so the same function times any revision:
//
//	go test -run '^$' -bench TemporalIndex ./internal/graph
func BenchmarkTemporalIndex(b *testing.B) {
	const window = int64(3_600_000)
	for _, m := range []int{100_000, 1_000_000} {
		// Edge i is (i>>10, 1024 + i&1023): ascending i is canonical order.
		edges := make([][2]int32, m)
		stamps := make([]int64, m)
		rng := rand.New(rand.NewSource(1))
		for i := range edges {
			edges[i] = [2]int32{int32(i >> 10), 1024 + int32(i&1023)}
			stamps[i] = rng.Int63n(window)
		}
		fill := func() *TemporalIndex {
			ti := NewTemporalIndex(window)
			for i, e := range edges {
				ti.Stamp(e[0], e[1], stamps[i])
			}
			return ti
		}
		label := map[int]string{100_000: "100k", 1_000_000: "1M"}[m]
		b.Run("drain/"+label, func(b *testing.B) {
			ti := fill()
			expired := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cutoff := int64(i+1) * 10
				out := ti.ExpireBefore(cutoff)
				for _, e := range out {
					ti.Stamp(e[0], e[1], cutoff+window)
				}
				ti.OldestStamp()
				expired += len(out)
			}
			b.ReportMetric(float64(expired)/float64(b.N), "expired/op")
		})
		b.Run("stamp/"+label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fill()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/edge")
		})
		b.Run("rebuild/"+label, func(b *testing.B) {
			g := MustFromEdges(2048, edges)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewTemporalIndexFromStamps(window, g, stamps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
