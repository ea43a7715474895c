package topk

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// Tie-breaking contract, table-driven. Equal ego-betweenness values are
// common (small integers over small cliques), and every exact top-k path —
// exhaustive selection, BaseBSearch, OptBSearch on any labeling, a recovered
// registry against a clean recompute — is compared with == on vertex ids, so
// all of them lean on the two guarantees pinned down here:
//
//  1. Results() ordering is a pure function of the held (vertex, score)
//     set: descending score, ties by ascending vertex id — independent of
//     insertion order.
//  2. The held set is a pure function of the offered items: the k first
//     under that same order, whatever the offer order. Under capacity
//     pressure a tied offer displaces the worst held item exactly when its
//     id is smaller, and a better offer displaces the largest-id minimum.

func TestResultsOrderingDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		items []Item
		want  []Item
	}{
		{
			name:  "distinct scores",
			items: []Item{{V: 4, Score: 1}, {V: 2, Score: 3}, {V: 9, Score: 2}},
			want:  []Item{{V: 2, Score: 3}, {V: 9, Score: 2}, {V: 4, Score: 1}},
		},
		{
			name:  "full tie orders by ascending id",
			items: []Item{{V: 9, Score: 5}, {V: 1, Score: 5}, {V: 4, Score: 5}},
			want:  []Item{{V: 1, Score: 5}, {V: 4, Score: 5}, {V: 9, Score: 5}},
		},
		{
			name:  "tie group inside distinct scores",
			items: []Item{{V: 7, Score: 2}, {V: 3, Score: 4}, {V: 5, Score: 2}, {V: 0, Score: 2}, {V: 8, Score: 6}},
			want:  []Item{{V: 8, Score: 6}, {V: 3, Score: 4}, {V: 0, Score: 2}, {V: 5, Score: 2}, {V: 7, Score: 2}},
		},
		{
			name:  "zero scores",
			items: []Item{{V: 2, Score: 0}, {V: 1, Score: 0}},
			want:  []Item{{V: 1, Score: 0}, {V: 2, Score: 0}},
		},
	}
	rng := rand.New(rand.NewPCG(11, 13))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every insertion order must produce the same Results().
			for trial := 0; trial < 10; trial++ {
				perm := rng.Perm(len(tc.items))
				b := NewBounded(len(tc.items))
				for _, i := range perm {
					b.Add(tc.items[i].V, tc.items[i].Score)
				}
				if got := b.Results(); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("order %v: Results() = %v, want %v", perm, got, tc.want)
				}
			}
		})
	}
}

func TestBoundedTieEvictionPolicy(t *testing.T) {
	cases := []struct {
		name      string
		k         int
		stream    []Item
		want      []Item // expected Results()
		wantWorst Item
	}{
		{
			// Ascending feeders (TopKExact, TopKOf) only ever offer ties
			// under larger ids.
			name:      "equal score never evicts",
			k:         2,
			stream:    []Item{{V: 1, Score: 5}, {V: 2, Score: 5}, {V: 3, Score: 5}, {V: 4, Score: 5}},
			want:      []Item{{V: 1, Score: 5}, {V: 2, Score: 5}}, // first two stay
			wantWorst: Item{V: 2, Score: 5},
		},
		{
			name:      "equal score under a smaller id evicts the largest id",
			k:         2,
			stream:    []Item{{V: 4, Score: 5}, {V: 3, Score: 5}, {V: 2, Score: 5}, {V: 1, Score: 5}},
			want:      []Item{{V: 1, Score: 5}, {V: 2, Score: 5}},
			wantWorst: Item{V: 2, Score: 5},
		},
		{
			// Among tied minima the heap order puts the largest id at the
			// root, so that is the one a strictly higher score evicts.
			name:      "strictly higher evicts the largest-id tied minimum",
			k:         2,
			stream:    []Item{{V: 1, Score: 5}, {V: 2, Score: 5}, {V: 3, Score: 6}},
			want:      []Item{{V: 3, Score: 6}, {V: 1, Score: 5}},
			wantWorst: Item{V: 1, Score: 5},
		},
		{
			name: "boundary tie keeps earlier arrival after churn",
			k:    3,
			stream: []Item{
				{V: 10, Score: 1}, {V: 11, Score: 9}, {V: 12, Score: 1},
				{V: 13, Score: 9}, {V: 14, Score: 1}, // tied with min 1 under a larger id: no eviction
				{V: 15, Score: 2}, // evicts vertex 12, the larger of the score-1 incumbents
			},
			want:      []Item{{V: 11, Score: 9}, {V: 13, Score: 9}, {V: 15, Score: 2}},
			wantWorst: Item{V: 15, Score: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBounded(tc.k)
			for _, it := range tc.stream {
				b.Add(it.V, it.Score)
			}
			if got := b.Results(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Results() = %v, want %v", got, tc.want)
			}
			if w, ok := b.Worst(); !ok || w != tc.wantWorst {
				t.Fatalf("Worst() = %v,%v, want %v", w, ok, tc.wantWorst)
			}
		})
	}
}

// TestBoundedValidTopKUnderTies is the randomized statement of guarantee 2:
// whatever the insertion order, Results() is the first k of the input sorted
// by (score desc, id asc).
func TestBoundedValidTopKUnderTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 42))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.IntN(60)
		k := 1 + rng.IntN(12)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.IntN(6)) // dense ties
		}
		b := NewBounded(k)
		for _, i := range rng.Perm(n) {
			b.Add(int32(i), scores[i])
		}
		got := b.Results()

		want := make([]Item, n)
		for i, s := range scores {
			want[i] = Item{V: int32(i), Score: s}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].V < want[j].V
		})
		if want = want[:min(k, n)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d k=%d: Results() = %v, want %v", n, k, got, want)
		}
	}
}
