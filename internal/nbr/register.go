package nbr

import "math/bits"

// Register is a reusable bitset over vertex identifiers, the third
// intersection strategy. A caller that intersects one fixed neighborhood
// (the "center") against many other lists marks the center once and then
// probes: each probe is one word load, so a scan over list costs O(|list|)
// regardless of the center's degree.
//
// Mark remembers the words it turns from zero to non-zero, so Unmark
// clears in O(words marked) — a handful of stores for a small mark set —
// and the register is reused across calls without O(n) zeroing.
type Register struct {
	words   []uint64 // bit per vertex
	touched []int32  // distinct non-zero words, in first-mark order
}

// NewRegister returns a Register that can mark vertices in [0, n).
func NewRegister(n int32) *Register {
	r := &Register{}
	r.Ensure(n)
	return r
}

// Ensure grows the register to cover vertices in [0, n).
func (r *Register) Ensure(n int32) {
	if need := (int(n) + 63) >> 6; need > len(r.words) {
		r.words = append(r.words, make([]uint64, need-len(r.words))...)
	}
}

// Mark sets the bits of vs. Vertices already marked are fine to re-mark.
// Callers must have Ensured capacity for every id in vs.
func (r *Register) Mark(vs []int32) {
	words := r.words
	for _, v := range vs {
		w := uint32(v) >> 6
		if words[w] == 0 {
			r.touched = append(r.touched, int32(w))
		}
		words[w] |= 1 << (uint32(v) & 63)
	}
}

// Unmark forgets every marked vertex by zeroing the words Mark set.
func (r *Register) Unmark() {
	for _, w := range r.touched {
		r.words[w] = 0
	}
	r.touched = r.touched[:0]
}

// IntersectInto appends list ∩ marked to dst and returns it. The appended
// run preserves list's order (ascending when list is ascending), matching
// the merge and galloping kernels exactly.
func (r *Register) IntersectInto(dst, list []int32) []int32 {
	words := r.words
	for _, v := range list {
		if words[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// AndCount returns |marked(r) ∩ marked(o)| — the word-parallel hub×hub
// kernel: it walks the shorter of the two registers' marked-word lists and
// sums OnesCount64 over the AND of each such word with the other
// register's, so its cost is the smaller mark set's word count, independent
// of the degrees. A word past the end of the other register is unmarked
// there.
func (r *Register) AndCount(o *Register) int {
	if len(o.touched) < len(r.touched) {
		r, o = o, r
	}
	n := 0
	for _, w := range r.touched {
		if int(w) < len(o.words) {
			n += bits.OnesCount64(r.words[w] & o.words[w])
		}
	}
	return n
}
