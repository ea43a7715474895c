package nbr

import (
	"math/bits"
	"sync"
)

// Register is a reusable bitset over vertex identifiers, the third
// intersection strategy. A caller that intersects one fixed neighborhood
// (the "center") against many other lists marks the center once and then
// probes: each probe is one word access, so a scan over list costs
// O(|list|) regardless of the center's degree — the right trade exactly
// when the center is a hub (degree ≥ HubDegree) whose list would otherwise
// be re-walked by every merge.
//
// Clearing is generation-based: every word carries an epoch stamp, and a
// word's bits count only while its stamp equals the register's current
// epoch. Unmark on a hub-sized mark set therefore just bumps the epoch —
// O(1) no matter how many vertices were marked — and Mark lazily re-zeroes
// any stale word it touches. Mark sets spanning fewer than
// directClearWords words are instead cleared in place (the remembered
// touched-word list is walked and zeroed), which keeps every stamp
// current so the next cycle's marks skip all stamp and summary
// maintenance — the small-marks case is as cheap as the pre-epoch
// eager-clearing design.
//
// On top of the bit words sits a one-bit-per-word summary (bit b of
// sum[s] set ⇔ word s·64+b was marked this epoch). The summary is what
// makes the word-parallel Register×Register kernel (AndCount) skip empty
// 64-word blocks — 4096 vertex ids per summary word — so
// sparse hub×hub intersections never touch the gaps. Direct clearing
// leaves summary bits (and the span) as an over-approximation: a stale
// summary bit only routes the AND to a zeroed word, which contributes
// nothing; the next epoch bump invalidates it wholesale.
type Register struct {
	words     []uint64 // bit per vertex; valid only where stamps matches epoch
	stamps    []uint32 // generation stamp per word
	sum       []uint64 // summary: bit per word, valid under sumStamps
	sumStamps []uint32 // generation stamp per summary word
	epoch     uint32   // current generation; stamp≠epoch reads as empty
	span      int32    // 1 + highest word index marked this epoch
	touched   []int32  // distinct words stamped this epoch, while ≤ cap
	overflow  bool     // touched list abandoned; Unmark must bump the epoch
}

// directClearWords is the touched-word count up to which Unmark clears
// words in place instead of bumping the epoch. Below hub scale the walk is
// a handful of plain stores and leaves every stamp current, so the next
// cycle's marks skip all stamp/summary maintenance; above it the O(1)
// epoch bump wins.
const directClearWords = 2 * HubDegree

// NewRegister returns a Register that can mark vertices in [0, n).
func NewRegister(n int32) *Register {
	r := &Register{epoch: 1}
	r.Ensure(n)
	return r
}

// Ensure grows the register to cover vertices in [0, n).
func (r *Register) Ensure(n int32) {
	need := (int(n) + 63) >> 6
	if need > len(r.words) {
		grownW := make([]uint64, need)
		copy(grownW, r.words)
		r.words = grownW
		grownS := make([]uint32, need)
		copy(grownS, r.stamps)
		r.stamps = grownS
	}
	needSum := (need + 63) >> 6
	if needSum > len(r.sum) {
		grownW := make([]uint64, needSum)
		copy(grownW, r.sum)
		r.sum = grownW
		grownS := make([]uint32, needSum)
		copy(grownS, r.sumStamps)
		r.sumStamps = grownS
	}
}

// Mark sets the bits of vs. Vertices already marked are fine to re-mark.
// Callers must have Ensured capacity for every id in vs.
//
// All stamp, summary, and span maintenance hides inside the first touch of
// a stale word: a hit on an already-stamped word — a repeat vertex, a
// dense relabel-compressed neighbor run sharing words, or any word cleared
// in place by a small Unmark — is one compare plus one OR.
func (r *Register) Mark(vs []int32) {
	e := r.epoch
	words, stamps := r.words, r.stamps
	for _, v := range vs {
		w := uint32(v) >> 6
		bit := uint64(1) << (uint32(v) & 63)
		if stamps[w] == e {
			words[w] |= bit
			continue
		}
		stamps[w] = e
		words[w] = bit
		r.stampedFresh(int32(w))
	}
}

// stampedFresh records bookkeeping for a word that was just stamped into
// the current epoch: the direct-clear touched list, the block summary, and
// the span. It is deliberately out of Mark's inline loop — the fast path
// (already-stamped word) pays nothing for it.
func (r *Register) stampedFresh(w int32) {
	if !r.overflow {
		if len(r.touched) < directClearWords {
			r.touched = append(r.touched, w)
		} else {
			r.overflow = true
			r.touched = r.touched[:0]
		}
	}
	s := w >> 6
	sb := uint64(1) << (uint32(w) & 63)
	if r.sumStamps[s] == r.epoch {
		r.sum[s] |= sb
	} else {
		r.sumStamps[s] = r.epoch
		r.sum[s] = sb
	}
	if w >= r.span {
		r.span = w + 1
	}
}

// Unmark forgets every marked vertex: in a handful of plain stores while
// the mark set spans at most directClearWords words, in O(1) by advancing
// the epoch once it outgrew that — stale words are then re-zeroed lazily
// by the next Mark that touches them. Every 2³² epoch bumps the stamp
// space wraps and is reset exactly, an amortized-free full clear.
func (r *Register) Unmark() {
	if !r.overflow {
		// The touched list and stamps survive: the words are zero and still
		// carry the current epoch, so the next cycle marks through the
		// stampless fast path with nothing to re-append. The summary and
		// span stay as over-approximations until the next epoch bump.
		for _, w := range r.touched {
			r.words[w] = 0
		}
		return
	}
	r.overflow = false
	r.touched = r.touched[:0]
	r.epoch++
	r.span = 0
	if r.epoch == 0 {
		clear(r.stamps)
		clear(r.sumStamps)
		r.epoch = 1
	}
}

// Contains reports whether v is marked. v must be within Ensured capacity.
func (r *Register) Contains(v int32) bool {
	w := uint32(v) >> 6
	return r.stamps[w] == r.epoch && r.words[w]&(1<<(uint32(v)&63)) != 0
}

// IntersectInto appends list ∩ marked to dst and returns it. The appended
// run preserves list's order (ascending when list is ascending), matching
// the merge and galloping kernels exactly.
func (r *Register) IntersectInto(dst, list []int32) []int32 {
	e := r.epoch
	words, stamps := r.words, r.stamps
	for _, v := range list {
		w := uint32(v) >> 6
		if stamps[w] == e && words[w]&(1<<(uint32(v)&63)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// liveSum returns the summary word s, or 0 when it is stale this epoch.
func (r *Register) liveSum(s int32) uint64 {
	if r.sumStamps[s] != r.epoch {
		return 0
	}
	return r.sum[s]
}

// AndCount returns |marked(r) ∩ marked(o)| — the word-parallel hub×hub
// kernel. It ANDs the two summary bitmaps to find 64-bit words live in both
// registers (skipping empty 64-word blocks wholesale) and sums OnesCount64
// over the AND of those words. Cost is O(min(span)/64) summary words plus
// one word AND per block where both sides hold vertices, independent of the
// degrees.
//
// A summary bit live in both registers implies both underlying words carry
// the current epoch (a word's summary bit is set exactly when the word is
// freshly stamped), so the word AND below never reads a stale word; the
// scan stops at the smaller span because an id marked in only one register
// cannot be in the intersection.
func (r *Register) AndCount(o *Register) int {
	lim := r.span
	if o.span < lim {
		lim = o.span
	}
	n := 0
	for s := int32(0); s<<6 < lim; s++ {
		sw := r.liveSum(s) & o.liveSum(s)
		for sw != 0 {
			w := s<<6 + int32(bits.TrailingZeros64(sw))
			sw &= sw - 1
			n += bits.OnesCount64(r.words[w] & o.words[w])
		}
	}
	return n
}

// registerPool recycles Registers across kernel invocations. Pooled
// registers keep their arrays, so a steady-state acquire is
// allocation-free once the pool has warmed to the graph's vertex count.
var registerPool = sync.Pool{New: func() any { return &Register{epoch: 1} }}

// AcquireRegister returns a cleared pooled Register covering [0, n).
func AcquireRegister(n int32) *Register {
	r := registerPool.Get().(*Register)
	r.Ensure(n)
	return r
}

// ReleaseRegister clears r and returns it to the pool.
func ReleaseRegister(r *Register) {
	r.Unmark()
	registerPool.Put(r)
}
