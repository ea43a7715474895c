package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"repro/internal/graph"
)

// Snapshot format versions this build writes and reads. Version 1 is the
// bare CSR snapshot; version 2 appends the maintainer-state section (see
// state.go) after an identically laid-out graph part. Creation and
// state-less checkpoints still write version 1, so old files, golden tests,
// and new files without maintainer state are bit-identical across the
// format extension; decoders reject any other version loudly instead of
// misreading it.
const (
	SnapshotVersion      = 1
	SnapshotVersionState = 2
)

// snapMagic identifies a snapshot file ("EBWS": Ego-BetWeenness Snapshot).
var snapMagic = [4]byte{'E', 'B', 'W', 'S'}

// SnapshotMeta is the serving metadata carried in a snapshot header.
type SnapshotMeta struct {
	// Mode is an application-defined maintenance-mode tag (the serving
	// layer stores 0 for local, 1 for lazy).
	Mode uint8
	// LazyK is the maintained k for lazy-mode graphs (0 otherwise).
	LazyK uint32
	// Seq is the last WAL batch sequence folded into this snapshot. WAL
	// records with Seq ≤ this are already reflected in the graph.
	Seq uint64
}

// Graph-part layout (all little-endian, fixed field order — the encoding of
// a given graph+meta is byte-stable, which the golden-file tests pin down):
//
//	[0]  magic    [4]byte "EBWS"
//	[4]  version  uint16
//	[6]  mode     uint8
//	[7]  reserved uint8 (must be 0)
//	[8]  lazyK    uint32
//	[12] seq      uint64
//	[20] n        uint32
//	[24] m        uint64
//	[32] offLen   uint64 = (n+1)*8, then offLen bytes of int64 offsets
//	[..] adjLen   uint64 = 2m*4,    then adjLen bytes of int32 adjacency
//	[..] crc      uint32 (IEEE, over every preceding byte of the graph part)
//
// A version-1 file ends exactly at the crc; a version-2 file continues with
// the 8-aligned maintainer-state section (state.go), whose own CRC covers
// only the section — so either half can be judged corrupt independently.
const (
	snapFixedHeaderLen = 40 // through the offLen field
	snapTrailerLen     = 4  // the crc
)

// EncodeSnapshot serializes g and its metadata into the version-1 snapshot
// format (no trailing sections). EncodeSnapshotFull produces version 2.
func EncodeSnapshot(g *graph.Graph, meta SnapshotMeta) []byte {
	return encodeGraphPart(g, meta, SnapshotVersion, 0)
}

// encodeGraphPart serializes the CSR graph part, closing it with its CRC.
// extraCap reserves room beyond the graph part, so a state-carrying encoder
// appends its section without regrowing the buffer.
func encodeGraphPart(g *graph.Graph, meta SnapshotMeta, version uint16, extraCap int) []byte {
	offsets, adj := g.CSR()
	offLen := uint64(len(offsets)) * 8
	adjLen := uint64(len(adj)) * 4
	buf := make([]byte, 0, snapFixedHeaderLen+int(offLen)+8+int(adjLen)+snapTrailerLen+extraCap)
	buf = append(buf, snapMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = append(buf, meta.Mode, 0)
	buf = binary.LittleEndian.AppendUint32(buf, meta.LazyK)
	buf = binary.LittleEndian.AppendUint64(buf, meta.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(g.NumVertices()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.NumEdges()))
	buf = binary.LittleEndian.AppendUint64(buf, offLen)
	buf = appendWords(buf, offsets)
	buf = binary.LittleEndian.AppendUint64(buf, adjLen)
	buf = appendWords(buf, adj)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// snapshotLayout skims a snapshot header far enough to situate its parts:
// the format version, the vertex count, and the byte length of the graph
// part (fixed header + sections + graph CRC). It validates the header fields
// it reads and that the graph part fits the input, so both full decoders can
// build on it without re-deriving overflow guards.
func snapshotLayout(data []byte) (version uint16, n, graphLen uint64, err error) {
	if len(data) < snapFixedHeaderLen+8+snapTrailerLen {
		return 0, 0, 0, fmt.Errorf("store: snapshot truncated (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != snapMagic {
		return 0, 0, 0, fmt.Errorf("store: bad snapshot magic %q", data[0:4])
	}
	version = binary.LittleEndian.Uint16(data[4:6])
	if version != SnapshotVersion && version != SnapshotVersionState {
		return 0, 0, 0, fmt.Errorf("store: unsupported snapshot version %d (this build reads %d and %d)",
			version, SnapshotVersion, SnapshotVersionState)
	}
	if data[7] != 0 {
		return 0, 0, 0, fmt.Errorf("store: corrupt snapshot header (reserved byte %#x)", data[7])
	}
	n = uint64(binary.LittleEndian.Uint32(data[20:24]))
	if n > math.MaxInt32 {
		return 0, 0, 0, fmt.Errorf("store: snapshot n=%d beyond int32", n)
	}
	m := binary.LittleEndian.Uint64(data[24:32])
	offLen := binary.LittleEndian.Uint64(data[32:40])
	if offLen != (n+1)*8 {
		return 0, 0, 0, fmt.Errorf("store: snapshot offsets section is %d bytes, n=%d implies %d", offLen, n, (n+1)*8)
	}
	// Every graph-part length is determined by the header, so its total is
	// too; bounding it by the input (with overflow guarded via division)
	// rejects truncation before any allocation and bounds every allocation
	// below by len(data).
	if m > (math.MaxUint64-uint64(snapFixedHeaderLen)-offLen-8-snapTrailerLen)/8 {
		return 0, 0, 0, fmt.Errorf("store: snapshot m=%d overflows the graph part", m)
	}
	graphLen = uint64(snapFixedHeaderLen) + offLen + 8 + 8*m + snapTrailerLen
	if graphLen > uint64(len(data)) {
		return 0, 0, 0, fmt.Errorf("store: snapshot is %d bytes, header implies ≥ %d", len(data), graphLen)
	}
	if adjLen := binary.LittleEndian.Uint64(data[snapFixedHeaderLen+offLen : snapFixedHeaderLen+offLen+8]); adjLen != 8*m {
		return 0, 0, 0, fmt.Errorf("store: snapshot adjacency section is %d bytes, m=%d implies %d", adjLen, m, 8*m)
	}
	return version, n, graphLen, nil
}

// The trailing sections of a version-2 snapshot share one frame (state.go
// documents it field by field); they appear in this order, each at most once.
type sectionKind int

const (
	sectionState sectionKind = iota
	sectionPerm
	sectionStamps
)

var sectionKinds = [...]struct {
	magic   [4]byte
	name    string
	version uint16
}{
	sectionState:  {stateMagic, "maintainer-state", StateVersion},
	sectionPerm:   {permMagic, "relabel-section", PermVersion},
	sectionStamps: {stampsMagic, "temporal-section", TemporalVersion},
}

// section is one framed section whose header and checksum validated.
type section struct {
	tag     uint8  // header byte 6: the state section's mode, zero elsewhere
	n       uint64 // the graph part's vertex count, which the section matched
	payload []byte
}

// appendSection appends one framed section to buf: zero padding to the next
// 8-byte boundary (the alignment is what makes a payload's word arrays
// mappable), the header, whatever payload fill appends, and the CRC.
func appendSection(buf []byte, kind sectionKind, tag uint8, n uint32, fill func([]byte) []byte) []byte {
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	start, k := len(buf), sectionKinds[kind]
	buf = append(buf, k.magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, k.version)
	buf = append(buf, tag, 0)
	buf = binary.LittleEndian.AppendUint32(buf, n)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // payloadLen, backfilled
	buf = fill(buf)
	binary.LittleEndian.PutUint64(buf[start+16:], uint64(len(buf)-start-stateHeaderLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// findSection walks the frames after a snapshot's graph part and returns the
// section of kind want, or (nil, nil) when the snapshot carries none — every
// version-1 file, and version-2 files checkpointed without it. Padding,
// framing and ordering are checked for every frame walked over; version,
// reserved fields, n and the CRC only for the wanted one, so damage inside
// one section never blocks decoding another (nor the graph, which
// DecodeSnapshot judges alone). Bytes after the wanted section are not
// examined. Like every decoder at this trust boundary it never panics and
// bounds every slice by the input length.
func findSection(data []byte, want sectionKind) (*section, error) {
	version, n, pos, err := snapshotLayout(data)
	if err != nil || version == SnapshotVersion {
		return nil, err
	}
	last := sectionKind(-1)
	for {
		for ; pos%8 != 0 && pos < uint64(len(data)); pos++ {
			if data[pos] != 0 {
				return nil, fmt.Errorf("store: nonzero padding between snapshot sections")
			}
		}
		sec := data[pos:]
		if len(sec) == 0 && last >= 0 {
			return nil, nil
		}
		// A version-2 header promises at least one section, so running out
		// of bytes before the first is truncation too.
		if len(sec) < stateHeaderLen+4 {
			return nil, fmt.Errorf("store: snapshot section truncated (%d trailing bytes)", len(sec))
		}
		kind := sectionKind(-1)
		for k := range sectionKinds {
			if sectionKinds[k].magic == [4]byte(sec[0:4]) {
				kind = sectionKind(k)
			}
		}
		if kind <= last {
			return nil, fmt.Errorf("store: unknown or misplaced snapshot section magic %q", sec[0:4])
		}
		if kind > want {
			return nil, nil
		}
		name := sectionKinds[kind].name // kind ≥ 0: it is > last
		payloadLen := binary.LittleEndian.Uint64(sec[16:24])
		if room := uint64(len(sec)) - stateHeaderLen - 4; payloadLen > room {
			return nil, fmt.Errorf("store: %s payload frames %d bytes, %d remain", name, payloadLen, room)
		}
		end := stateHeaderLen + payloadLen
		if kind < want {
			last, pos = kind, pos+end+4
			continue
		}
		if v, reads := binary.LittleEndian.Uint16(sec[4:6]), sectionKinds[kind].version; v != reads {
			return nil, fmt.Errorf("store: unsupported %s version %d (this build reads %d)", name, v, reads)
		}
		if (kind != sectionState && sec[6] != 0) || sec[7] != 0 || binary.LittleEndian.Uint32(sec[12:16]) != 0 {
			return nil, fmt.Errorf("store: corrupt %s header (reserved fields)", name)
		}
		if secN := binary.LittleEndian.Uint32(sec[8:12]); uint64(secN) != n {
			return nil, fmt.Errorf("store: %s covers n=%d, snapshot graph has n=%d", name, secN, n)
		}
		if got, want := crc32.ChecksumIEEE(sec[:end]), binary.LittleEndian.Uint32(sec[end:]); got != want {
			return nil, fmt.Errorf("store: %s checksum mismatch (file %#x, computed %#x)", name, want, got)
		}
		return &section{tag: sec[6], n: n, payload: sec[stateHeaderLen:end]}, nil
	}
}

// PeekSnapshotMeta validates a snapshot image's header far enough to read
// its serving metadata — notably Meta.Seq, which identifies the WAL segment
// that continues after this checkpoint — without decoding the CSR body. The
// shipping layer uses it to label a checkpoint it serves or fetched; the
// full structural validation still happens at DecodeSnapshot time.
func PeekSnapshotMeta(data []byte) (SnapshotMeta, error) {
	if _, _, _, err := snapshotLayout(data); err != nil {
		return SnapshotMeta{}, err
	}
	return SnapshotMeta{
		Mode:  data[6],
		LazyK: binary.LittleEndian.Uint32(data[8:12]),
		Seq:   binary.LittleEndian.Uint64(data[12:20]),
	}, nil
}

// DecodeSnapshot parses the graph part of a snapshot produced by
// EncodeSnapshot or EncodeSnapshotFull, validating the version, every
// length prefix, the graph checksum, and finally the full CSR structural
// invariants. Corrupt, truncated, or trailing-garbage input returns an
// error; it never panics and never allocates more than the input itself
// implies. A version-2 file's maintainer-state section is deliberately not
// examined here — DecodeSnapshotState judges it separately, so state-section
// corruption can never block loading the graph.
func DecodeSnapshot(data []byte) (*graph.Graph, SnapshotMeta, error) {
	var meta SnapshotMeta
	version, n, graphLen, err := snapshotLayout(data)
	if err != nil {
		return nil, meta, err
	}
	if version == SnapshotVersion && graphLen != uint64(len(data)) {
		return nil, meta, fmt.Errorf("store: snapshot is %d bytes, header implies %d", len(data), graphLen)
	}
	meta.Mode = data[6]
	meta.LazyK = binary.LittleEndian.Uint32(data[8:12])
	meta.Seq = binary.LittleEndian.Uint64(data[12:20])
	body, crcBytes := data[:graphLen-snapTrailerLen], data[graphLen-snapTrailerLen:graphLen]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, meta, fmt.Errorf("store: snapshot checksum mismatch (file %#x, computed %#x)", want, got)
	}

	offsets := make([]int64, n+1)
	decodeWords(offsets, data[snapFixedHeaderLen:])
	pos := uint64(snapFixedHeaderLen) + (n+1)*8 + 8 // through the adjLen field
	adj := make([]int32, (graphLen-snapTrailerLen-pos)/4)
	decodeWords(adj, data[pos:])
	g, err := graph.FromCSR(offsets, adj)
	if err != nil {
		return nil, meta, fmt.Errorf("store: snapshot body: %w", err)
	}
	return g, meta, nil
}

// writeSnapshotFile atomically replaces path with the encoded snapshot:
// write to a temp file in the same directory, fsync, rename over path, fsync
// the directory. A crash at any point leaves either the old or the new
// snapshot fully intact, never a torn one. A non-nil hook is the crash-
// injection seam: CrashInStateWrite fires between the graph part and the
// maintainer-state section of the temp file (tearing the section exactly
// where a real crash could), CrashAfterSnapshotTmp once the temp file is
// durable, just before the rename; a non-nil return aborts there.
func writeSnapshotFile(path string, g *graph.Graph, meta SnapshotMeta, st *MaintainerState, perm []int32, ts *TemporalState, hook func(point string) error) error {
	img := EncodeSnapshotFull(g, meta, st, perm, ts)
	split := len(img)
	if !st.empty() || len(perm) > 0 || !ts.empty() {
		// The graph part's length is fully determined by g.
		offsets, adj := g.CSR()
		split = snapFixedHeaderLen + len(offsets)*8 + 8 + len(adj)*4 + snapTrailerLen
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	if _, err := f.Write(img[:split]); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if split < len(img) {
		if hook != nil {
			if err := hook(CrashInStateWrite); err != nil {
				f.Close()
				return err
			}
		}
		if _, err := f.Write(img[split:]); err != nil {
			f.Close()
			return fmt.Errorf("store: snapshot state write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if hook != nil {
		if err := hook(CrashAfterSnapshotTmp); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// readSnapshotFile loads and decodes the snapshot at path into a Recovered
// (Tail and TornBytes left for the caller): the graph always, the optional
// sections — maintainer state, relabel permutation, temporal state — on a
// best-effort basis. Each section is nil either when the snapshot does not
// carry it (its error is then nil: nothing was expected) or when the section
// is unusable (the error says why; the graph still serves).
func readSnapshotFile(path string) (*Recovered, error) {
	data, err := readFileShared(path)
	if err != nil {
		return nil, err
	}
	g, meta, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rec := &Recovered{Meta: meta, Graph: g}
	rec.State, rec.StateErr = DecodeSnapshotState(data)
	rec.Perm, rec.PermErr = DecodeSnapshotPerm(data)
	rec.Stamps, rec.StampsErr = DecodeSnapshotStamps(data)
	return rec, nil
}

// syncDir fsyncs a directory so a just-renamed or just-created entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
