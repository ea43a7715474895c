package server

// scoreVec is a snapshot's score vector in chunked copy-on-write form.
// Chunks are immutable once published: a drain builds the next vector by
// sharing every clean chunk with its predecessor and deep-copying only the
// chunks holding a score the maintainer actually changed, so publication
// costs O(dirty/chunk) instead of O(n). A drain that changed no score shares
// everything — the zero-copy fast path. ModeLazy's stale flags ride in
// chunks of their own, copied with their score chunk.

// scoreChunkShift/scoreChunkSize: 1024 float64 per chunk — 8 KiB, small
// enough that a single changed score costs little to re-publish, large
// enough that the chunk-pointer table stays tiny (n/1024 words).
const (
	scoreChunkShift = 10
	scoreChunkSize  = 1 << scoreChunkShift
)

type scoreVec struct {
	chunks [][]float64 // every chunk has len scoreChunkSize; tail zero-padded
	stale  [][]bool    // stale[i][j]: chunk i's score j is an upper bound; nil in ModeLocal
	n      int32       // logical length
}

// chunkOf copies chunk ci of src into a fresh, zero-padded chunk.
func chunkOf[T any](src []T, ci int) []T {
	c := make([]T, scoreChunkSize)
	copy(c, src[ci<<scoreChunkShift:])
	return c
}

// newScoreVec copies a flat score vector, and its stale flags unless nil,
// into chunked form.
func newScoreVec(all []float64, stale []bool) *scoreVec {
	n := int32(len(all))
	nChunks := (int(n) + scoreChunkSize - 1) >> scoreChunkShift
	s := &scoreVec{n: n, chunks: make([][]float64, nChunks)}
	for i := range s.chunks {
		s.chunks[i] = chunkOf(all, i)
	}
	if stale != nil {
		s.stale = make([][]bool, nChunks)
		for i := range s.stale {
			s.stale[i] = chunkOf(stale, i)
		}
	}
	return s
}

// At returns the score of v.
func (s *scoreVec) At(v int32) float64 {
	return s.chunks[v>>scoreChunkShift][v&(scoreChunkSize-1)]
}

// Stale reports whether At(v) is an upper bound rather than v's score.
func (s *scoreVec) Stale(v int32) bool {
	return s.stale != nil && s.stale[v>>scoreChunkShift][v&(scoreChunkSize-1)]
}

// withUpdates derives the successor vector from src (the maintainer's live
// flat vector, len = the new n), its stale flags (nil in ModeLocal) and the
// vertices whose score or flag changed since the previous publication.
// Clean chunks are shared by pointer; dirty chunks — and any chunk newly
// needed because n grew — are copied from src. copied reports how many
// chunks were materialized. When nothing changed at all (no dirty vertex,
// same n) the receiver itself is returned with copied = 0: the published
// snapshot keeps the previous vector.
//
// New vertices start at score 0, which is exactly the zero padding the
// predecessor's tail chunk already holds, so growth inside an existing
// chunk is free; a new vertex whose score moved in the same drain is in
// dirty and lands in a copied chunk like any other change.
func (s *scoreVec) withUpdates(src []float64, stale []bool, dirty []int32) (next *scoreVec, copied int) {
	n := int32(len(src))
	if len(dirty) == 0 && n == s.n {
		return s, 0
	}
	nChunks := (int(n) + scoreChunkSize - 1) >> scoreChunkShift
	next = &scoreVec{chunks: make([][]float64, nChunks), n: n}
	copy(next.chunks, s.chunks)
	if stale != nil {
		next.stale = make([][]bool, nChunks)
		copy(next.stale, s.stale)
	}
	refresh := func(ci int) {
		next.chunks[ci] = chunkOf(src, ci)
		if stale != nil {
			next.stale[ci] = chunkOf(stale, ci)
		}
		copied++
	}
	for ci := len(s.chunks); ci < nChunks; ci++ {
		refresh(ci) // growth past the old chunk table
	}
	for _, v := range dirty {
		ci := int(v) >> scoreChunkShift
		if ci < len(s.chunks) && &next.chunks[ci][0] == &s.chunks[ci][0] {
			refresh(ci)
		}
	}
	return next, copied
}
