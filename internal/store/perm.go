package store

import "fmt"

// Relabel-permutation section of a version-2 snapshot. Daemons that served
// with degree-ordered relabeling (retired from serving, DESIGN.md §12)
// persisted the permutation alongside the graph; the format stays readable
// so their data directories still recover — the serving layer validates the
// frame while walking past it and never applies the permutation — and
// CheckpointFull still writes it for a caller that passes one. The section
// mirrors the maintainer-state frame and
// follows it (or the graph part directly, when no state was checkpointed),
// zero-padded to the next 8-byte boundary:
//
//	[S+0]  magic      [4]byte "EBRL"
//	[S+4]  version    uint16 (PermVersion)
//	[S+6]  reserved   uint16 (must be 0)
//	[S+8]  n          uint32 (must equal the graph part's n)
//	[S+12] reserved   uint32 (must be 0)
//	[S+16] payloadLen uint64 = 4n, then n × int32 perm (perm[external] = internal)
//	[..]   crc        uint32 (IEEE, over the section from S through payload)
//
// Like the state section, its CRC covers only itself: a corrupt permutation
// never blocks loading the graph or the maintainer state.
const (
	// PermVersion is the relabel-permutation section format version.
	PermVersion = 1
)

var permMagic = [4]byte{'E', 'B', 'R', 'L'}

// DecodeSnapshotPerm extracts the relabel permutation of a snapshot image,
// or (nil, nil) when the snapshot carries none (every version-1 file, and
// version-2 files checkpointed without relabeling). An error means the
// section is present but unusable — truncated, checksum mismatch, version
// skew. The returned slice aliases data zero-copy on little-endian hosts; the caller
// must not modify data afterwards.
func DecodeSnapshotPerm(data []byte) ([]int32, error) {
	sec, err := findSection(data, sectionPerm)
	if sec == nil {
		return nil, err
	}
	if sec.n == 0 {
		return nil, fmt.Errorf("store: relabel section present for an empty graph")
	}
	if uint64(len(sec.payload)) != 4*sec.n {
		return nil, fmt.Errorf("store: relabel payload is %d bytes, n=%d implies %d", len(sec.payload), sec.n, 4*sec.n)
	}
	return aliasWords[int32](sec.payload, sec.n), nil
}
