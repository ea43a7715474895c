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

// TestTemporalIndexExpiryMatchesBruteForce cross-checks the bucketed sweep
// against a map-scan oracle across random stamp distributions (including
// heavy skew and negative stamps) and random interleaved deletes.
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
		}
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
