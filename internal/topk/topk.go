package topk

import "sort"

// Item is a vertex with a score (an exact ego-betweenness in R, an upper
// bound in H).
type Item struct {
	V     int32
	Score float64
}

// Bounded is the top-k result set R: the k best items seen so far under the
// total order "higher score first, ties by smaller label first", kept as a
// heap with the worst held item at the root. Because the order is total,
// the held set is a function of the offered items alone — not of the order
// they were offered in — which is what lets every exact top-k path
// (exhaustive, BaseBSearch, OptBSearch on any labeling) return the same
// list. The zero value is not usable; construct with NewBounded.
type Bounded struct {
	k     int
	items []Item
	ext   []int32 // optional external labels for score-tie ordering
}

// NewBounded returns an empty result set with capacity k (k ≥ 1).
func NewBounded(k int) *Bounded {
	return NewBoundedLabeled(k, nil)
}

// NewBoundedLabeled is NewBounded with score ties ordered by the external
// label ext[v] instead of the vertex id, making every tie decision — and
// therefore the selected set itself — invariant under internal relabeling.
// A nil ext means identity labels.
func NewBoundedLabeled(k int, ext []int32) *Bounded {
	if k < 1 {
		k = 1
	}
	return &Bounded{k: k, items: make([]Item, 0, k), ext: ext}
}

// label returns the tie-break key of v.
func (b *Bounded) label(v int32) int32 {
	if b.ext == nil {
		return v
	}
	return b.ext[v]
}

// Full reports whether k items are held.
func (b *Bounded) Full() bool { return len(b.items) == b.k }

// Worst returns the held item that the next better offer would displace —
// the lowest score, and among equal scores the largest label. Its score is
// the pruning threshold min_{v∈R} CB(v). ok is false while R is not yet
// full, because no pruning is possible then.
func (b *Bounded) Worst() (Item, bool) {
	if !b.Full() {
		return Item{}, false
	}
	return b.items[0], true
}

// Beats reports whether (v, score) ranks strictly before it in the result
// order: a higher score, or the same score under a smaller label.
func (b *Bounded) Beats(v int32, score float64, it Item) bool {
	if score != it.Score {
		return score > it.Score
	}
	return b.label(v) < b.label(it.V)
}

// Add offers (v, score) to the result set. When full, the item displaces
// the worst held one only if it ranks strictly before it. Nearly every offer
// to a full set scores below the worst held item; that case is settled here,
// on one comparison the compiler inlines into the caller's loop.
func (b *Bounded) Add(v int32, score float64) {
	if len(b.items) == b.k && score < b.items[0].Score {
		return
	}
	b.add(v, score)
}

func (b *Bounded) add(v int32, score float64) {
	if len(b.items) < b.k {
		b.items = append(b.items, Item{V: v, Score: score})
		b.siftUp(len(b.items) - 1)
		return
	}
	if !b.Beats(v, score, b.items[0]) {
		return
	}
	b.items[0] = Item{V: v, Score: score}
	b.siftDown(0)
}

// Results returns the held items in result order: descending score, ties by
// ascending vertex id (external label when labeled).
func (b *Bounded) Results() []Item {
	out := make([]Item, len(b.items))
	copy(out, b.items)
	sort.Slice(out, func(i, j int) bool { return b.Beats(out[i].V, out[i].Score, out[j]) })
	return out
}

// less orders the heap worst-first: the reverse of the result order.
func (b *Bounded) less(i, j int) bool {
	return b.Beats(b.items[j].V, b.items[j].Score, b.items[i])
}

func (b *Bounded) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(i, parent) {
			return
		}
		b.items[i], b.items[parent] = b.items[parent], b.items[i]
		i = parent
	}
}

func (b *Bounded) siftDown(i int) {
	n := len(b.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && b.less(l, small) {
			small = l
		}
		if r < n && b.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		b.items[i], b.items[small] = b.items[small], b.items[i]
		i = small
	}
}

// MaxHeap is the candidate list H of OptBSearch: a binary max-heap of
// (vertex, bound) pairs. Score ties pop the larger vertex identifier first,
// mirroring the degree-order tie direction of the paper's total order ≺.
type MaxHeap struct {
	items []Item
	ext   []int32 // optional external labels for score-tie ordering
	walk  []int   // Top's frontier, kept to reuse its memory
}

// NewMaxHeapLabeled returns an empty heap with capacity hint c whose score
// ties pop by descending external label ext[v], so the pop sequence — the
// entire candidate visit order of OptBSearch — is invariant under internal
// relabeling. A nil ext means identity labels.
func NewMaxHeapLabeled(c int, ext []int32) *MaxHeap {
	return &MaxHeap{items: make([]Item, 0, c), ext: ext}
}

// label returns the tie-break key of v.
func (h *MaxHeap) label(v int32) int32 {
	if h.ext == nil {
		return v
	}
	return h.ext[v]
}

// Len returns the number of items.
func (h *MaxHeap) Len() int { return len(h.items) }

// Push inserts (v, score).
func (h *MaxHeap) Push(v int32, score float64) {
	h.items = append(h.items, Item{V: v, Score: score})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.greater(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the item with the highest score.
func (h *MaxHeap) Pop() Item {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.greater(l, big) {
			big = l
		}
		if r < last && h.greater(r, big) {
			big = r
		}
		if big == i {
			break
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
	return top
}

// Top appends to dst the next n items Pop would return, in pop order,
// without changing the heap. It walks best-first from the root: the next
// item is the greatest on the frontier of nodes whose parent was taken, so
// it reads at most 2n+1 nodes.
func (h *MaxHeap) Top(dst []Item, n int) []Item {
	f := h.walk[:0]
	if len(h.items) > 0 {
		f = append(f, 0)
	}
	for ; n > 0 && len(f) > 0; n-- {
		b := 0
		for j := 1; j < len(f); j++ {
			if h.greater(f[j], f[b]) {
				b = j
			}
		}
		i := f[b]
		dst = append(dst, h.items[i])
		f[b] = f[len(f)-1]
		f = f[:len(f)-1]
		for c := 2*i + 1; c <= 2*i+2 && c < len(h.items); c++ {
			f = append(f, c)
		}
	}
	h.walk = f
	return dst
}

func (h *MaxHeap) greater(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score > h.items[j].Score
	}
	return h.label(h.items[i].V) > h.label(h.items[j].V)
}
