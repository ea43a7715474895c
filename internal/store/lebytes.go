package store

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// The snapshot format is little-endian on disk. On little-endian hosts —
// every platform this repository targets — a word array therefore moves
// between file bytes and memory as a single memcpy, or, for the 8-aligned
// maintainer-state payload, as a zero-copy reinterpretation of the file
// buffer. Big-endian hosts take the portable per-element path below. The
// distinction is what turns state decode from O(elements) conversion loops
// into O(1)/O(bytes) moves, which the instant-recovery budget depends on.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// word is any fixed-width array element the snapshot codec moves in bulk.
type word interface {
	uint32 | int32 | uint64 | int64 | float64
}

// wordData views s's backing array as bytes (host byte order).
func wordData[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// appendWords appends the little-endian encoding of s to buf.
func appendWords[T word](buf []byte, s []T) []byte {
	if hostLittleEndian {
		return append(buf, wordData(s)...)
	}
	switch s := any(s).(type) {
	case []uint32:
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
	case []int32:
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	case []uint64:
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	case []int64:
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	case []float64:
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// decodeWords fills dst from the first len(dst)*sizeof(T) bytes of src.
func decodeWords[T word](dst []T, src []byte) {
	if hostLittleEndian {
		copy(wordData(dst), src)
		return
	}
	switch dst := any(dst).(type) {
	case []uint32:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
	case []int32:
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []uint64:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
	case []int64:
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []float64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// aliasWords returns an n-element []T view of src's first n*sizeof(T) bytes.
// On a little-endian host this is zero-copy: the slice aliases src, whose
// backing buffer the caller thereby hands over to whatever outlives the
// decode (the aligned on-disk layout guarantees src is sizeof(T)-aligned
// wherever the codec calls this). Big-endian hosts get a converted copy.
func aliasWords[T word](src []byte, n uint64) []T {
	if n == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(src))), n)
	}
	dst := make([]T, n)
	decodeWords(dst, src)
	return dst
}
