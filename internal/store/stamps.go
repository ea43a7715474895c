package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// Temporal section of a version-2 snapshot. A graph served with a sliding
// window persists its window length and the admission timestamp of every
// live edge alongside the CSR, so recovery (and a replica bootstrapping from
// a shipped checkpoint) resumes expiring exactly where the leader left off —
// no stamp is ever re-derived from a clock. The section mirrors the
// maintainer-state frame and is the last section of the file, after the
// maintainer state and relabel permutation when those are present:
//
//	[S+0]  magic      [4]byte "EBTS"
//	[S+4]  version    uint16 (TemporalVersion)
//	[S+6]  reserved   uint16 (must be 0)
//	[S+8]  n          uint32 (must equal the graph part's n)
//	[S+12] reserved   uint32 (must be 0)
//	[S+16] payloadLen uint64 = 16 + 8m, then the payload:
//	         windowMS uint64 (sliding window length, unix milliseconds)
//	         m        uint64 (must equal the graph part's m)
//	         stamps   m × int64 unix ms, one per edge in canonical CSR
//	                  order (ascending u, then ascending v, u < v)
//	[..]   crc        uint32 (IEEE, over the section from S through payload)
//
// Like its sibling sections, the CRC covers only the section: a corrupt
// temporal section never blocks loading the graph — recovery serves the
// graph unwindowed and surfaces the decode error instead of inventing
// stamps.
const (
	// TemporalVersion is the temporal-section format version.
	TemporalVersion = 1
)

var stampsMagic = [4]byte{'E', 'B', 'T', 'S'}

// TemporalState is the decoded temporal section: the graph's sliding-window
// length and one admission stamp per edge, in canonical CSR edge order.
type TemporalState struct {
	WindowMS uint64
	Stamps   []int64
}

// empty reports whether there is nothing to persist: no window configured.
// A windowed graph with zero edges still encodes (the window length itself
// must survive recovery).
func (ts *TemporalState) empty() bool {
	return ts == nil || ts.WindowMS == 0
}

// EncodeSnapshotFull serializes g, its metadata, and all optional trailing
// sections: maintainer state, relabel permutation, and temporal state. With
// none present (nil or empty) it degrades to the bit-identical version-1
// format — EncodeSnapshot — so stores that never checkpointed a section keep
// producing v1 files; any section present makes it version 2.
func EncodeSnapshotFull(g *graph.Graph, meta SnapshotMeta, st *MaintainerState, perm []int32, ts *TemporalState) []byte {
	if st.empty() && len(perm) == 0 && ts.empty() {
		return EncodeSnapshot(g, meta)
	}
	n := int(g.NumVertices())
	extra := 0
	if !st.empty() {
		extra += 7 + stateSectionLen(n, st)
	}
	if len(perm) > 0 {
		extra += 7 + stateHeaderLen + 4*len(perm) + 4
	}
	if !ts.empty() {
		extra += 7 + stateHeaderLen + 16 + 8*len(ts.Stamps) + 4
	}
	buf := encodeGraphPart(g, meta, SnapshotVersionState, extra)
	if !st.empty() {
		buf = appendStateSection(buf, uint32(n), st)
	}
	if len(perm) > 0 {
		buf = appendSection(buf, sectionPerm, 0, uint32(n), func(b []byte) []byte { return appendWords(b, perm) })
	}
	if !ts.empty() {
		buf = appendSection(buf, sectionStamps, 0, uint32(n), func(b []byte) []byte { return appendStampsPayload(b, ts) })
	}
	return buf
}

func appendStampsPayload(buf []byte, ts *TemporalState) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, ts.WindowMS)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ts.Stamps)))
	return appendWords(buf, ts.Stamps)
}

// DecodeSnapshotStamps extracts the temporal section of a snapshot image, or
// (nil, nil) when the snapshot carries none (every version-1 file, and
// version-2 files checkpointed without a window). An error means the section
// is present but unusable — the caller serves the graph unwindowed and
// reports it, rather than expiring on fabricated stamps. The returned stamp
// slice aliases data zero-copy on little-endian hosts; the caller must not
// modify data afterwards.
func DecodeSnapshotStamps(data []byte) (*TemporalState, error) {
	sec, err := findSection(data, sectionStamps)
	if sec == nil {
		return nil, err
	}
	payload := sec.payload
	if len(payload) < 16 || (len(payload)-16)%8 != 0 {
		return nil, fmt.Errorf("store: temporal payload is %d bytes, not 16+8m", len(payload))
	}
	ts := &TemporalState{WindowMS: binary.LittleEndian.Uint64(payload[0:8])}
	if ts.WindowMS == 0 {
		return nil, fmt.Errorf("store: temporal section with zero window")
	}
	secM := binary.LittleEndian.Uint64(payload[8:16])
	if m := binary.LittleEndian.Uint64(data[24:32]); secM != m {
		return nil, fmt.Errorf("store: temporal section stamps %d edges, snapshot graph has %d", secM, m)
	}
	if uint64(len(payload)) != 16+8*secM {
		return nil, fmt.Errorf("store: temporal payload frames %d bytes, m=%d implies %d", len(payload), secM, 16+8*secM)
	}
	ts.Stamps = aliasWords[int64](payload[16:], secM)
	return ts, nil
}
