package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dynamic"
)

// Maintainer-state section of a version-2 snapshot (DESIGN.md §11). A v2
// snapshot is a v1-shaped graph part (own trailing CRC, version field 2)
// followed by zero padding to the next 8-byte boundary and one state section:
//
//	[S+0]  magic      [4]byte "EBMS"
//	[S+4]  version    uint16 (StateVersion)
//	[S+6]  mode       uint8 (0 = local/exact, 1 = lazy)
//	[S+7]  reserved   uint8 (must be 0)
//	[S+8]  n          uint32 (must equal the graph part's n)
//	[S+12] reserved   uint32 (must be 0)
//	[S+16] payloadLen uint64, then payloadLen bytes of payload
//	[..]   crc        uint32 (IEEE, over the section from S through payload)
//
// The section starts 8-aligned and its float64/uint64 arrays sit at 8-aligned
// file offsets, so the decoder views them zero-copy in the read buffer
// (lebytes.go) — state decode costs a validation scan, not a conversion pass.
// The graph part's CRC does not cover the section and the section's CRC does
// not cover the graph, so a corrupt or torn state section never blocks
// loading the CSR — recovery falls back to the rebuild path instead.
//
// Local (mode 0) payload — the flattened dynamic.LocalState:
//
//	scores     n × float64
//	tableSizes n × uint32, then 4 zero bytes if n is odd (8-align the keys)
//	totalSlots uint64 = Σ tableSizes
//	keys       totalSlots × uint64  (raw open-addressing slot arrays,
//	vals       totalSlots × int32    empty/tombstone slots included)
//	dirtyCount uint32
//	dirty      dirtyCount × int32
//
// Lazy (mode 1) payload — the flattened dynamic.LazyState:
//
//	cached      n × float64
//	stale       n × uint8 (0 or 1), then zero bytes to the next 4-boundary
//	memberCount uint32
//	members     memberCount × int32
const (
	// StateVersion is the maintainer-state section format version.
	StateVersion = 1
	// stateHeaderLen covers magic through payloadLen.
	stateHeaderLen = 24

	stateModeLocal uint8 = 0
	stateModeLazy  uint8 = 1
)

var stateMagic = [4]byte{'E', 'B', 'M', 'S'}

// MaintainerState is the decoded maintainer-state section: exactly one of
// the two fields is set, matching the maintenance mode the snapshot was
// checkpointed under.
type MaintainerState struct {
	Local *dynamic.LocalState
	Lazy  *dynamic.LazyState
}

// empty reports whether no state is carried at all.
func (st *MaintainerState) empty() bool {
	return st == nil || (st.Local == nil && st.Lazy == nil)
}

// appendStateSection appends the framed state section to buf.
func appendStateSection(buf []byte, n uint32, st *MaintainerState) []byte {
	if st.Local != nil {
		return appendSection(buf, sectionState, stateModeLocal, n, func(b []byte) []byte {
			return appendLocalPayload(b, st.Local)
		})
	}
	return appendSection(buf, sectionState, stateModeLazy, n, func(b []byte) []byte {
		return appendLazyPayload(b, st.Lazy)
	})
}

// stateSectionLen is the encoded byte length of the state section for an
// n-vertex graph: header, payload, and section CRC. The encoder preallocates
// with it so a checkpoint's image is built without buffer regrowth.
func stateSectionLen(n int, st *MaintainerState) int {
	if st.Local != nil {
		pad := 0
		if n%2 == 1 {
			pad = 4
		}
		return stateHeaderLen + 8*n + 4*n + pad + 8 + 12*len(st.Local.Keys) + 4 + 4*len(st.Local.Dirty) + 4
	}
	pad := (4 - (9*n)%4) % 4
	return stateHeaderLen + 8*n + n + pad + 4 + 4*len(st.Lazy.Members) + 4
}

func appendLocalPayload(buf []byte, st *dynamic.LocalState) []byte {
	buf = appendWords(buf, st.Scores)
	buf = appendWords(buf, st.TableSizes)
	if len(st.TableSizes)%2 == 1 {
		buf = append(buf, 0, 0, 0, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(st.Keys)))
	buf = appendWords(buf, st.Keys)
	buf = appendWords(buf, st.Vals)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Dirty)))
	return appendWords(buf, st.Dirty)
}

func appendLazyPayload(buf []byte, st *dynamic.LazyState) []byte {
	buf = appendWords(buf, st.Cached)
	for _, s := range st.Stale {
		if s {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	for len(buf)%4 != 0 {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Members)))
	return appendWords(buf, st.Members)
}

// DecodeSnapshotState extracts and decodes the maintainer-state section of a
// snapshot image. For a version-1 snapshot it returns (nil, nil): no section
// exists and none is expected. For a version-2 snapshot it returns the state
// or an error describing why the section is unusable (truncated, checksum
// mismatch, version skew, framing violation) — the caller treats any error
// as "rebuild instead". The graph part is only skimmed for its lengths, so
// this composes with DecodeSnapshot, which validates it fully; like every
// decoder at this trust boundary it never panics and bounds every allocation
// by the input length.
//
// On little-endian hosts the returned state's arrays alias data zero-copy
// (the point of the section's 8-aligned layout): the caller hands the buffer
// over to whatever consumes the state — the imported maintainer mutates and
// retains it — and must not reuse or modify data afterwards. Each recovery
// reads its own buffer, so this costs nothing and saves the copy of the
// largest thing in the file.
func DecodeSnapshotState(data []byte) (*MaintainerState, error) {
	sec, err := findSection(data, sectionState)
	if sec == nil {
		return nil, err
	}
	switch sec.tag {
	case stateModeLocal:
		st, err := decodeLocalPayload(sec.payload, sec.n)
		if err != nil {
			return nil, err
		}
		return &MaintainerState{Local: st}, nil
	case stateModeLazy:
		st, err := decodeLazyPayload(sec.payload, sec.n)
		if err != nil {
			return nil, err
		}
		return &MaintainerState{Lazy: st}, nil
	default:
		return nil, fmt.Errorf("store: unknown maintainer-state mode tag %d", sec.tag)
	}
}

func decodeLocalPayload(payload []byte, n uint64) (*dynamic.LocalState, error) {
	pad := uint64(0)
	if n%2 == 1 {
		pad = 4
	}
	fixed := 8*n + 4*n + pad + 8 // scores, tableSizes, pad, totalSlots
	if uint64(len(payload)) < fixed {
		return nil, fmt.Errorf("store: maintainer state: local payload %d bytes, fixed part needs %d", len(payload), fixed)
	}
	st := &dynamic.LocalState{
		Scores:     aliasWords[float64](payload, n),
		TableSizes: aliasWords[uint32](payload[8*n:], n),
	}
	pos := 8*n + 4*n
	var totalSlots uint64
	for _, sz := range st.TableSizes {
		totalSlots += uint64(sz)
	}
	for i := uint64(0); i < pad; i++ {
		if payload[pos] != 0 {
			return nil, fmt.Errorf("store: maintainer state: nonzero alignment padding")
		}
		pos++
	}
	if claimed := binary.LittleEndian.Uint64(payload[pos : pos+8]); claimed != totalSlots {
		return nil, fmt.Errorf("store: maintainer state frames %d evidence slots, tables sum to %d", claimed, totalSlots)
	}
	pos += 8
	// 12 bytes per slot plus the dirty-count field must fit in what remains;
	// checking via division (no overflowable multiply) before viewing keeps
	// every slice bounded by the input length.
	rest := uint64(len(payload)) - pos
	if rest < 4 || totalSlots > (rest-4)/12 {
		return nil, fmt.Errorf("store: maintainer state: %d evidence slots overrun the payload", totalSlots)
	}
	st.Keys = aliasWords[uint64](payload[pos:], totalSlots)
	pos += 8 * totalSlots
	st.Vals = aliasWords[int32](payload[pos:], totalSlots)
	pos += 4 * totalSlots
	dirtyCount := uint64(binary.LittleEndian.Uint32(payload[pos : pos+4]))
	pos += 4
	if uint64(len(payload))-pos != 4*dirtyCount {
		return nil, fmt.Errorf("store: maintainer state frames %d dirty scores, %d bytes remain", dirtyCount, uint64(len(payload))-pos)
	}
	st.Dirty = aliasWords[int32](payload[pos:], dirtyCount)
	return st, nil
}

func decodeLazyPayload(payload []byte, n uint64) (*dynamic.LazyState, error) {
	fixed := 8*n + n
	pad := (4 - fixed%4) % 4
	fixed += pad + 4 // alignment, memberCount
	if uint64(len(payload)) < fixed {
		return nil, fmt.Errorf("store: maintainer state: lazy payload %d bytes, fixed part needs %d", len(payload), fixed)
	}
	// Every stale byte must be 0/1 before the array may be viewed as []bool
	// (any other bit pattern in a Go bool is undefined behavior).
	for pos := 8 * n; pos < 9*n; pos++ {
		if payload[pos] > 1 {
			return nil, fmt.Errorf("store: maintainer state: staleness flag %#x is not 0/1", payload[pos])
		}
	}
	st := &dynamic.LazyState{
		Cached: aliasWords[float64](payload, n),
		Stale:  aliasBools(payload[8*n:], n),
	}
	pos := 9 * n
	for i := uint64(0); i < pad; i++ {
		if payload[pos] != 0 {
			return nil, fmt.Errorf("store: maintainer state: nonzero alignment padding")
		}
		pos++
	}
	memberCount := uint64(binary.LittleEndian.Uint32(payload[pos : pos+4]))
	pos += 4
	if uint64(len(payload))-pos != 4*memberCount {
		return nil, fmt.Errorf("store: maintainer state frames %d members, %d bytes remain", memberCount, uint64(len(payload))-pos)
	}
	st.Members = aliasWords[int32](payload[pos:], memberCount)
	return st, nil
}
